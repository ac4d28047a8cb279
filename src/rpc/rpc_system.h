// RPC over the simulated fabric, with at-least-once delivery.
//
// Mirrors RAMCloud's transport/dispatch integration (§3.1): an inbound RPC
// is polled off the NIC by the destination's dispatch core (charged
// dispatch_per_rpc_ns), handled (handlers usually enqueue worker tasks), and
// the response transmission is posted back through the dispatch core
// (dispatch_tx_ns). Nodes without a CoreSet (client machines, which the
// paper never bottlenecks) deliver straight to the continuation.
//
// Fault tolerance: the fabric may drop, duplicate, or delay any message
// (see FaultInjector), so the transport provides at-least-once semantics.
// A call with a timeout retransmits its request — same call_id — with
// capped exponential backoff plus seeded jitter until a response arrives or
// the overall deadline expires (then the callback fires with
// Status::kServerDown and a null response). The server side suppresses
// duplicate executions per call_id: a retransmission of a completed call
// replays the cached (cloned) response; one that races a still-executing
// handler is dropped. A call with timeout zero is sent exactly once and
// waits forever — the pre-fault-injection behavior.
//
// Hot path: requests are intrusively refcounted (no shared_ptr control
// block), delivery/response closures are inline (no make_shared boxing),
// and the pending-call and dedup tables are flat open-addressed maps — one
// request/response round trip allocates only the message objects themselves.
#ifndef ROCKSTEADY_SRC_RPC_RPC_SYSTEM_H_
#define ROCKSTEADY_SRC_RPC_RPC_SYSTEM_H_

#include <deque>
#include <functional>
#include <memory>
#include <array>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/annotations.h"
#include "src/common/flat_map.h"
#include "src/common/intrusive_ptr.h"
#include "src/rpc/messages.h"
#include "src/sim/core_set.h"
#include "src/sim/lane_set.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"

namespace rocksteady {

class RpcSystem;

// The endpoint's reply closure captures {endpoint, call_id} — 16 bytes; 24
// leaves headroom (tests build fake contexts with a reference capture or
// two) and keeps the ReplyFn object small enough that handler completion
// closures carrying {this, reply, response, arrival} fit a worker DoneFn's
// 64 inline bytes with no heap fallback.
inline constexpr size_t kReplyInlineBytes = 24;
using ReplyFn = InlineFunction<void(std::unique_ptr<RpcResponse>), kReplyInlineBytes>;

// Server-side context for one in-flight RPC. The request is shared with the
// transport (retransmissions deliver the same object), but duplicate
// suppression guarantees the handler runs at most once per call_id, so
// handlers may freely move data out of it. Move-only: the reply closure is
// single-owner (handlers that outlive their stack frame move the context
// into their completion state).
struct RpcContext {
  Simulator* sim = nullptr;
  NodeId from = 0;
  IntrusivePtr<RpcRequest> request;

  // Sends the response (exactly once per execution).
  ReplyFn reply;

  template <typename T>
  T& As() {
    return static_cast<T&>(*request);
  }
};

// One RPC-reachable node: handlers plus an optional CoreSet through which
// inbound requests and outbound responses are dispatched.
class RpcEndpoint {
 public:
  // Handler registration happens once at server construction — cold path, so
  // the copyable std::function shape is fine here.
  using Handler = std::function<void(RpcContext)>;  // lint:allow-churn

  RpcEndpoint(RpcSystem* system, NodeId node, CoreSet* cores, Simulator* sim)
      : system_(system), node_(node), cores_(cores), sim_(sim) {}

  void Register(Opcode op, Handler handler) {
    handlers_[static_cast<size_t>(op)] = std::move(handler);
  }

  NodeId node() const { return node_; }
  CoreSet* cores() const { return cores_; }
  RpcSystem* system() const { return system_; }
  // The simulator this endpoint's events execute on (its lane's, in lane
  // mode; the shared one otherwise).
  Simulator* sim() const { return sim_; }

  uint64_t duplicates_suppressed() const { return duplicates_suppressed_; }
  uint64_t responses_replayed() const { return responses_replayed_; }

  // Current duplicate-suppression cache population (regression tests assert
  // this stays bounded over long runs).
  size_t dedup_size() const { return dedup_.size(); }

 private:
  friend class RpcSystem;

  // Per-call_id duplicate suppression. An entry is created when the handler
  // actually starts executing (not at delivery: the dispatch queue may be
  // wiped by a crash first) and stamped with the CoreSet epoch so that an
  // execution cut short by Halt() is re-run, not treated as in flight.
  struct DedupEntry {
    uint64_t epoch = 0;
    bool done = false;
    std::unique_ptr<RpcResponse> response;  // Cached clone once done.
    Tick completed_at = 0;
  };

  // `retransmittable` = the caller armed a timeout, so more copies of this
  // call_id can arrive later. When it is false and the fabric has never had
  // a fault injector, this delivery is provably the only one — the endpoint
  // skips dedup bookkeeping and the response-clone cache entirely.
  void Deliver(NodeId from, IntrusivePtr<RpcRequest> request, uint64_t call_id,
               bool retransmittable);
  void Execute(NodeId from, IntrusivePtr<RpcRequest> request, uint64_t call_id,
               bool retransmittable);
  void PruneDedup();
  uint64_t CurrentEpoch() const;

  RpcSystem* system_;
  NodeId node_;
  CoreSet* cores_;  // Null for unmodeled-CPU nodes (clients).
  Simulator* sim_;  // This endpoint's lane simulator.
  // Filled once at server construction; opcode-indexed array so per-RPC
  // handler lookup is one load, not a hash probe.
  static constexpr size_t kMaxOpcodes = 64;
  std::array<Handler, kMaxOpcodes> handlers_;
  // Bounded: every entry is tracked by dedup_created_ from creation and by
  // dedup_fifo_ from completion; PruneDedup expires both after the
  // rpc_dedup_retention_ns horizon, so long chaos runs cannot grow this.
  FlatMap64<DedupEntry> dedup_;
  // Bounded: drained by PruneDedup past the retention horizon.
  std::deque<std::pair<Tick, uint64_t>> dedup_fifo_;  // (completed_at, call_id).
  // Bounded: drained by PruneDedup past the retention horizon. Tracks every
  // entry from creation so executions orphaned by a crash (never completed,
  // stale epoch, hence never in dedup_fifo_) still expire.
  std::deque<std::pair<Tick, uint64_t>> dedup_created_;  // (created_at, call_id).
  uint64_t duplicates_suppressed_ = 0;
  uint64_t responses_replayed_ = 0;
};

class RpcSystem {
 public:
  // Completion callbacks capture up to 88 bytes inline — sized for the
  // widest steady-state caller (a client actor's per-op continuation).
  inline static constexpr size_t kCallbackInlineBytes = 88;
  using ResponseCallback =
      InlineFunction<void(Status, std::unique_ptr<RpcResponse>), kCallbackInlineBytes>;

  RpcSystem(Simulator* sim, Network* net, const CostModel* costs)
      : sim_(sim), net_(net), costs_(costs) {}

  RpcSystem(const RpcSystem&) = delete;
  RpcSystem& operator=(const RpcSystem&) = delete;

  // Lane mode: callers' timers, jitter draws, and pending tables move to
  // per-lane (and per-node) homes so no RPC state is touched from two lanes.
  // Call once at setup, before any CreateEndpoint.
  void SetLanes(LaneSet* lanes) {
    lanes_ = lanes;
    while (pending_lanes_.size() < static_cast<size_t>(lanes->lanes())) {
      pending_lanes_.emplace_back();
    }
    lane_retransmissions_.assign(static_cast<size_t>(lanes->lanes()), PaddedCount{});
  }
  LaneSet* lanes() const { return lanes_; }

  // Creates an endpoint on a fresh network node, placed on `lane` (ignored
  // in legacy mode).
  RpcEndpoint* CreateEndpoint(CoreSet* cores, int lane = 0);

  // Issues an RPC. `timeout` of zero means one attempt and no deadline.
  // With a timeout, the request is retransmitted (same call_id) on a capped
  // exponential backoff until the deadline; then the callback receives
  // kServerDown with a null response.
  void Call(NodeId from, NodeId to, std::unique_ptr<RpcRequest> request, ResponseCallback cb,
            Tick timeout = 0);

  RpcEndpoint* Endpoint(NodeId node) const {
    return node < endpoints_.size() ? endpoints_[node].get() : nullptr;
  }

  Simulator* sim() const { return sim_; }
  Network* net() const { return net_; }
  const CostModel* costs() const { return costs_; }

  // The simulator owning a given lane / a given node's events. In legacy
  // mode both collapse to the single shared simulator.
  Simulator* SimOfLane(int lane) { return lanes_ != nullptr ? &lanes_->lane_sim(lane) : sim_; }
  Simulator* SimFor(NodeId node) { return lanes_ != nullptr ? lanes_->SimFor(node) : sim_; }
  // The RNG a caller draws jitter/backoff from: the node's private stream in
  // lane mode (draws in node event order are lane-invariant), the shared
  // simulator stream otherwise.
  Random& CallerRng(NodeId node) {
    return lanes_ != nullptr ? lanes_->NodeRng(node) : sim_->rng();
  }

  uint64_t calls_issued() const {
    if (lanes_ == nullptr) {
      return next_call_id_;
    }
    uint64_t total = 0;
    for (const PaddedCount& count : next_call_id_node_) {
      total += count.value;
    }
    return total;
  }
  uint64_t retransmissions() const {
    uint64_t total = retransmissions_;
    for (const PaddedCount& shard : lane_retransmissions_) {
      total += shard.value;
    }
    return total;
  }

 private:
  friend class RpcEndpoint;

  struct PendingCall {
    NodeId caller = 0;
    NodeId server = 0;
    IntrusivePtr<RpcRequest> request;
    ResponseCallback cb;
    Tick deadline = 0;  // 0 = wait forever, no retransmission.
    int attempts = 0;
    // Lane mode caches the wire size at Call time: the server's handler may
    // be moving payload out of the request on its own lane while the caller
    // retransmits, so attempts must not re-measure the shared object.
    // (Legacy mode re-measures per attempt, preserving recorded traces.)
    size_t wire = 0;
  };

  // Per-lane and per-node slots sit a cache line apart so lanes never
  // false-share them.
  struct alignas(64) PaddedCount {
    uint64_t value = 0;
  };
  struct alignas(64) PaddedPending {
    FlatMap64<PendingCall> calls;
  };

  // Lane-mode call_ids carry their caller: ((node + 1) << kCallerShift) | n.
  // The +1 keeps the id space disjoint from legacy's bare counter, and lets
  // the server side recover the caller without touching its pending table.
  static constexpr int kCallerShift = 40;
  static NodeId CallerOf(uint64_t call_id) {
    return static_cast<NodeId>((call_id >> kCallerShift) - 1);
  }
  // The pending table owning `call_id` — the caller's lane's table in lane
  // mode (only ever touched from that lane), the shared one otherwise.
  FlatMap64<PendingCall>& PendingFor(uint64_t call_id) {
    return lanes_ != nullptr
               ? pending_lanes_[static_cast<size_t>(lanes_->lane_of(CallerOf(call_id)))].calls
               : pending_;
  }

  // Transmits one attempt of a pending call and, when a deadline is set,
  // arms the next retransmission.
  void SendAttempt(uint64_t call_id);
  // Server side: routes a response (fresh or replayed) back to the caller.
  // The pending entry is erased only when the response reaches the caller,
  // so a lost response leaves the retransmission path armed.
  void TransmitResponse(uint64_t call_id, NodeId server_node,
                        std::unique_ptr<RpcResponse> response);

  Simulator* sim_;
  Network* net_;
  const CostModel* costs_;
  LaneSet* lanes_ = nullptr;  // Null in legacy single-queue mode.

  // Appended at setup only; lanes read concurrently through Endpoint().
  ROCKSTEADY_SHARED_GUARDED("grown at setup only; read-only while lanes run")
  std::vector<std::unique_ptr<RpcEndpoint>> endpoints_;

  // Bounded by the callers' outstanding RPCs: an entry is erased when its
  // response is delivered, its timeout fires, or its endpoint halts.
  FlatMap64<PendingCall> pending_;  // Legacy mode.
  // Lane mode: one pending table per lane, touched only from its own lane
  // (responses hop to the caller's lane before the lookup). Bounded like
  // pending_ above; the deque itself is fixed at SetLanes (lane count).
  ROCKSTEADY_SHARED_GUARDED("per-lane tables; each touched only by its owning lane")
  std::deque<PaddedPending> pending_lanes_;  // lint:bounded — fixed lane count; entries erased on completion.

  uint64_t next_call_id_ = 0;  // Legacy mode.
  // Lane mode: per-node call counters (slot i touched only by node i's lane).
  ROCKSTEADY_SHARED_GUARDED("per-node slots; slot i written only by node i's lane")
  std::vector<PaddedCount> next_call_id_node_;

  uint64_t retransmissions_ = 0;  // Legacy mode.
  ROCKSTEADY_SHARED_GUARDED("per-lane shards; each written only by its owning lane")
  std::vector<PaddedCount> lane_retransmissions_;
};

}  // namespace rocksteady

#endif  // ROCKSTEADY_SRC_RPC_RPC_SYSTEM_H_
