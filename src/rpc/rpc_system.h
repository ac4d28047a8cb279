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
// Status::kServerDown and a null response). A call that finishes first
// withdraws its armed deadline and retransmit timers (Simulator::Cancel),
// so a completed call leaves no event behind. The server side suppresses
// duplicate executions per call_id: a retransmission of a completed call
// replays the cached (cloned) response; one that races a still-executing
// handler is dropped. A call with timeout zero is sent exactly once and
// waits forever — the pre-fault-injection behavior.
//
// First-incomplete watermarks (RIFL's rule): each request carries the
// lowest call_id its caller has not yet finished (completed or timed out)
// to this server. When the request executes, the server forgets that
// caller's dedup entries below it, cached clones included; from then on it
// drops any copy below it unexecuted and unreplayed. A server therefore
// holds dedup state only for the calls each caller has not finished to it,
// plus the last window of a caller that never calls it again. Only counted
// calls (those the server keeps an entry for) hold the watermark or are
// dropped by it. The watermark rides the fixed header and adds no event or
// random draw.
//
// Hot path: requests are intrusively refcounted (no shared_ptr control
// block), delivery/response closures are inline (no make_shared boxing),
// the pending-call table is a flat open-addressed map, and the per-peer
// call windows are capacity-keeping vectors — one request/response round
// trip allocates only the message objects and the cached clone.
#ifndef ROCKSTEADY_SRC_RPC_RPC_SYSTEM_H_
#define ROCKSTEADY_SRC_RPC_RPC_SYSTEM_H_

#include <array>
#include <functional>
#include <memory>
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
  // The simulator this endpoint's events execute on (its lane's).
  Simulator* sim() const { return sim_; }

  uint64_t duplicates_suppressed() const { return duplicates_suppressed_; }
  uint64_t responses_replayed() const { return responses_replayed_; }

  // Current duplicate-suppression cache population (regression tests assert
  // it stays within the callers' unfinished calls).
  size_t dedup_size() const;

 private:
  friend class RpcSystem;

  // Per-call_id duplicate suppression. An entry is created when the handler
  // actually starts executing (not at delivery: the dispatch queue may be
  // wiped by a crash first) and stamped with the CoreSet epoch so that an
  // execution cut short by Halt() is re-run, not treated as in flight.
  struct DedupEntry {
    uint64_t call_id = 0;
    uint64_t epoch = 0;
    bool done = false;
    std::unique_ptr<RpcResponse> response;  // Cached clone once done.
  };

  // Server side: one caller's calls to this endpoint.
  struct CallerWindow {
    // Monotone: every counted call below it is finished at the caller.
    uint64_t finished_below = 0;
    // Sorted by call_id. Bounded by the caller's unfinished counted calls
    // here plus those a later request has not yet moved the mark past.
    std::vector<DedupEntry> entries;

    std::vector<DedupEntry>::iterator LowerBound(uint64_t call_id);
    DedupEntry* Find(uint64_t call_id);
    // Raises the mark to `first_incomplete`, erasing the entries below it.
    void Advance(uint64_t first_incomplete);
    // A copy of `request` (call `call_id`) the caller already finished.
    bool Stale(const RpcRequest& request, uint64_t call_id) const {
      return request.counted && call_id < finished_below;
    }
  };

  // Caller side: this node's counted call_ids to one server in issue order;
  // [head, ids.size()) are the ones not yet seen finished. Keeps its
  // capacity, so stamping allocates nothing per call.
  struct IssuedCalls {
    std::vector<uint64_t> ids;
    size_t head = 0;
  };

  void Deliver(NodeId from, IntrusivePtr<RpcRequest> request, uint64_t call_id);
  void Execute(NodeId from, IntrusivePtr<RpcRequest> request, uint64_t call_id);
  uint64_t CurrentEpoch() const;
  CallerWindow& WindowOf(NodeId caller);

  // Caller side: records call `call_id` to `server` and returns the lowest
  // counted call_id to it still pending (`call_id` itself if none).
  uint64_t FirstIncomplete(NodeId server, uint64_t call_id, bool counted);

  RpcSystem* system_;
  NodeId node_;
  CoreSet* cores_;  // Null for unmodeled-CPU nodes (clients).
  Simulator* sim_;  // This endpoint's lane simulator.
  // Filled once at server construction; opcode-indexed array so per-RPC
  // handler lookup is one load, not a hash probe.
  static constexpr size_t kMaxOpcodes = 64;
  std::array<Handler, kMaxOpcodes> handlers_;
  // Indexed by caller node; grows to at most one window per node. Each
  // window's entries are bounded as CallerWindow says.
  std::vector<CallerWindow> callers_;
  // Indexed by server node; touched only on this node's lane. Each list is
  // bounded by the calls this node issued to that server while its oldest
  // unfinished counted call there was pending.
  std::vector<IssuedCalls> issued_;
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

  // Callers' timers, jitter draws, and pending tables live in per-lane
  // (and per-node) homes so no RPC state is touched from two lanes.
  RpcSystem(LaneSet* lanes, Network* net, const CostModel* costs)
      : net_(net), costs_(costs), lanes_(lanes),
        pending_lanes_(static_cast<size_t>(lanes->lanes())),
        lane_retransmissions_(static_cast<size_t>(lanes->lanes())) {}

  RpcSystem(const RpcSystem&) = delete;
  RpcSystem& operator=(const RpcSystem&) = delete;

  LaneSet* lanes() const { return lanes_; }

  // Creates an endpoint on a fresh network node, placed on `lane`.
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

  Network* net() const { return net_; }
  const CostModel* costs() const { return costs_; }

  // The simulator owning a given lane / a given node's events.
  Simulator* SimOfLane(int lane) { return &lanes_->lane_sim(lane); }
  Simulator* SimFor(NodeId node) { return lanes_->SimFor(node); }
  // The RNG a caller draws jitter/backoff from: the node's private stream
  // (draws in node event order are lane-invariant).
  Random& CallerRng(NodeId node) { return lanes_->NodeRng(node); }

  uint64_t calls_issued() const {
    uint64_t total = 0;
    for (const PaddedCount& count : next_call_id_node_) {
      total += count.value;
    }
    return total;
  }
  uint64_t retransmissions() const {
    uint64_t total = 0;
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
    // The wire size, measured at Call time: the server's handler may be
    // moving payload out of the request on its own lane while the caller
    // retransmits, so attempts must not re-measure the shared object.
    size_t wire = 0;
    // The caller's deadline and next-retransmission events, withdrawn when
    // the call finishes first. Each is cleared when its own event runs.
    Simulator::Timer deadline_timer;
    Simulator::Timer retransmit_timer;
  };

  // Per-lane and per-node slots sit a cache line apart so lanes never
  // false-share them.
  struct alignas(64) PaddedCount {
    uint64_t value = 0;
  };
  struct alignas(64) PaddedPending {
    FlatMap64<PendingCall> calls;
  };

  // call_ids carry their caller: ((node + 1) << kCallerShift) | n, so the
  // server side recovers the caller without touching its pending table.
  static constexpr int kCallerShift = 40;
  static NodeId CallerOf(uint64_t call_id) {
    return static_cast<NodeId>((call_id >> kCallerShift) - 1);
  }
  // The pending table owning `call_id`: the caller's lane's table, only
  // ever touched from that lane.
  FlatMap64<PendingCall>& PendingFor(uint64_t call_id) {
    return pending_lanes_[static_cast<size_t>(lanes_->lane_of(CallerOf(call_id)))].calls;
  }

  // Transmits one attempt of a pending call and, when a deadline is set,
  // arms the next retransmission.
  void SendAttempt(uint64_t call_id);
  // Caller side: withdraws `pending`'s armed timers, erases it from `table`
  // and returns its callback.
  ResponseCallback Finish(FlatMap64<PendingCall>& table, uint64_t call_id, PendingCall* pending);
  // Server side: routes a response (fresh or replayed) back to the caller.
  // The pending entry is erased only when the response reaches the caller,
  // so a lost response leaves the retransmission path armed.
  void TransmitResponse(uint64_t call_id, NodeId server_node,
                        std::unique_ptr<RpcResponse> response);

  Network* net_;
  const CostModel* costs_;
  LaneSet* lanes_;

  // Appended at setup only; lanes read concurrently through Endpoint().
  ROCKSTEADY_SHARED_GUARDED("grown at setup only; read-only while lanes run")
  std::vector<std::unique_ptr<RpcEndpoint>> endpoints_;

  // One pending table per lane, touched only from its own lane (responses
  // hop to the caller's lane before the lookup). Bounded by the callers'
  // outstanding RPCs: an entry is erased when its response is delivered or
  // its timeout fires; the vector itself is fixed at the lane count.
  ROCKSTEADY_SHARED_GUARDED("per-lane tables; each touched only by its owning lane")
  std::vector<PaddedPending> pending_lanes_;  // lint:bounded — fixed lane count; entries erased on completion.

  // Per-node call counters (slot i touched only by node i's lane).
  ROCKSTEADY_SHARED_GUARDED("per-node slots; slot i written only by node i's lane")
  std::vector<PaddedCount> next_call_id_node_;

  ROCKSTEADY_SHARED_GUARDED("per-lane shards; each written only by its owning lane")
  std::vector<PaddedCount> lane_retransmissions_;
};

}  // namespace rocksteady

#endif  // ROCKSTEADY_SRC_RPC_RPC_SYSTEM_H_
