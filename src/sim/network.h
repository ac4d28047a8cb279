// Simulated data-center fabric.
//
// Models each node's egress NIC as a serial link with finite bandwidth plus a
// fixed one-way propagation delay (Table 1: 40 Gbps links through one
// switch). Message payloads never serialize for real — the RPC layer moves
// C++ objects — but every message charges serialization time for its declared
// wire size, which is what creates the bandwidth ceilings the paper measures
// (line rate 5 GB/s; migration contending with client traffic).
//
// Packet interleaving: a real kernel-bypass transport sends MTU-sized frames,
// so a microsecond-scale response never waits behind a whole 256 KB bulk
// transfer (§2.4: Rocksteady "incorporates into RAMCloud's transport layer to
// minimize jitter caused by background migration transfers"). The model
// approximates this with two egress tracks per node: small messages (under
// kBulkThresholdBytes) serialize on their own track and only ever wait for
// other small messages; bulk messages queue FIFO among themselves. The model
// error (small traffic's bandwidth is not deducted from bulk) is a few
// percent at the paper's traffic mix.
//
// Hot path: delivery callbacks are inline (NetFn), the per-message fault
// Decision is a fixed-size value, and the rare duplicated/delayed fan-out
// shares one pooled, intrusively-refcounted delivery node instead of a
// make_shared'd std::function — a Send allocates nothing.
#ifndef ROCKSTEADY_SRC_SIM_NETWORK_H_
#define ROCKSTEADY_SRC_SIM_NETWORK_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/annotations.h"
#include "src/common/inline_function.h"
#include "src/sim/cost_model.h"
#include "src/sim/fault_injector.h"
#include "src/sim/lane_set.h"
#include "src/sim/simulator.h"

namespace rocksteady {

// Delivery callbacks store up to 64 capture bytes inline; the simulator
// event wrapping one ({this, to, NetFn}) then fills EventFn's 88 exactly.
inline constexpr size_t kNetInlineCallbackBytes = 64;
using NetFn = InlineFunction<void(), kNetInlineCallbackBytes>;

class Network {
 public:
  Network(Simulator* sim, const CostModel* costs) : sim_(sim), costs_(costs) {
    counters_.resize(1);
    pools_.resize(1);
  }

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  static constexpr size_t kBulkThresholdBytes = 4096;

  // Lane mode: sends execute on the sender's lane, deliveries on the
  // receiver's. Cross-lane deliveries route through the LaneSet mailboxes;
  // counters and the fault-path delivery pool become per-lane so the hot
  // path never touches another lane's cache line. Call once at setup,
  // before any Send.
  void SetLanes(LaneSet* lanes) {
    lanes_ = lanes;
    counters_.assign(static_cast<size_t>(lanes->lanes()), Counters{});
    pools_.resize(static_cast<size_t>(lanes->lanes()));
  }

  NodeId AddNode() {
    egress_.emplace_back();
    node_down_.push_back(false);
    return static_cast<NodeId>(egress_.size() - 1);
  }
  size_t NumNodes() const { return egress_.size(); }

  // Delivers `on_delivery` at the destination after egress serialization of
  // `wire_bytes` plus propagation. Messages from one node share its egress
  // link (FIFO). Messages to or from a down node are dropped. The callback
  // may be invoked more than once if the fabric duplicates the message, so
  // it must not consume one-shot state on invocation (the RPC layer's
  // delivery closures copy shared handles or null-check moved state).
  void Send(NodeId from, NodeId to, size_t wire_bytes, NetFn on_delivery);

  // Crash simulation: messages in flight to a down node are dropped at
  // delivery time; messages from it are not sent. In lane mode this must be
  // called from a safe point (all lanes parked) — every lane reads the flag.
  void SetNodeDown(NodeId node, bool down) { node_down_[node] = down; }
  bool IsNodeDown(NodeId node) const { return node_down_[node]; }

  // Installs (or removes, with nullptr) a fault injector consulted on every
  // Send. Not owned; must outlive the network while installed.
  void SetFaultInjector(FaultInjector* injector) {
    fault_injector_ = injector;
    faults_ever_installed_ = faults_ever_installed_ || injector != nullptr;
  }
  FaultInjector* fault_injector() const { return fault_injector_; }

  // True once any injector has ever been installed. Duplicates injected
  // before an injector was removed can still be in flight after removal, so
  // "no injector now" is not "no duplicates ever" — layers that want to skip
  // duplicate-defense work must check this, not fault_injector().
  bool faults_ever_installed() const { return faults_ever_installed_; }

  // Counter accessors sum the per-lane shards (one shard in legacy mode).
  uint64_t total_bytes_sent() const { return SumCounter(&Counters::total_bytes_sent); }
  uint64_t total_messages() const { return SumCounter(&Counters::total_messages); }

  // Loss accounting: nothing vanishes silently. Down-node drops are the
  // crash model doing its job; injected_* only move when an injector is
  // installed. Experiment summaries print these so a lossy run is visibly
  // lossy.
  uint64_t dropped_from_down_node() const {
    return SumCounter(&Counters::dropped_from_down_node);
  }
  uint64_t dropped_to_down_node() const { return SumCounter(&Counters::dropped_to_down_node); }
  uint64_t injected_drops() const { return SumCounter(&Counters::injected_drops); }
  uint64_t injected_duplicates() const { return SumCounter(&Counters::injected_duplicates); }
  uint64_t injected_delays() const { return SumCounter(&Counters::injected_delays); }

 private:
  // One fault-path fan-out: up to two delivery copies share the callback.
  // Nodes are pooled and reused; all storage is owned by the pool so
  // teardown is clean even with copies still scheduled.
  struct SharedDelivery {
    NetFn fn;
    int refs = 0;
    SharedDelivery* next_free = nullptr;
  };

  // Send-side statistics, sharded per lane (cache-line spaced so lanes never
  // false-share); legacy mode uses shard 0 only.
  struct alignas(64) Counters {
    uint64_t total_bytes_sent = 0;
    uint64_t total_messages = 0;
    uint64_t dropped_from_down_node = 0;
    uint64_t dropped_to_down_node = 0;
    uint64_t injected_drops = 0;
    uint64_t injected_duplicates = 0;
    uint64_t injected_delays = 0;
  };

  // A node's egress link: when each track is next free. One cache line per
  // node, so senders on different lanes never false-share.
  struct alignas(64) Egress {
    Tick small_free_at = 0;
    Tick bulk_free_at = 0;  // Messages >= kBulkThresholdBytes.
  };

  struct alignas(64) LanePool {
    std::vector<std::unique_ptr<SharedDelivery>> storage;
    SharedDelivery* free_list = nullptr;
  };

  // The lane a node's events execute on: counter/pool shard index.
  size_t LaneOf(NodeId node) const {
    return lanes_ != nullptr ? static_cast<size_t>(lanes_->lane_of(node)) : 0;
  }
  uint64_t SumCounter(uint64_t Counters::* field) const {
    uint64_t total = 0;
    for (const Counters& shard : counters_) {
      total += shard.*field;
    }
    return total;
  }

  SharedDelivery* AllocShared(size_t pool);
  void ReleaseShared(size_t pool, SharedDelivery* shared);
  // Schedules a delivery event: same-lane (and legacy) through the source
  // simulator, cross-lane through the LaneSet mailbox.
  void ScheduleDelivery(Simulator* src, NodeId to, Tick arrive, EventFn ev);

  Simulator* sim_;
  const CostModel* costs_;
  LaneSet* lanes_ = nullptr;  // Null in legacy single-queue mode.

  // Per-node slots: only the owning node's lane ever touches index i.
  ROCKSTEADY_SHARED_GUARDED("per-node egress slots; only node i's lane reads/writes index i")
  std::vector<Egress> egress_;

  // Read by every lane on each delivery; written only at setup or from a
  // LaneSet safe point, when all lanes are parked.
  ROCKSTEADY_SHARED_GUARDED("all lanes read; writes only at setup or safe points (lanes parked)")
  std::vector<bool> node_down_;

  FaultInjector* fault_injector_ = nullptr;
  bool faults_ever_installed_ = false;

  // Fault-path delivery nodes, pooled per lane: a node is allocated on the
  // sender's lane and released into the *receiver's* lane's pool (the last
  // delivery copy runs there). Cells are only ever touched by their own lane.
  ROCKSTEADY_SHARED_GUARDED("per-lane free lists; each touched only by its owning lane")
  std::vector<LanePool> pools_;

  ROCKSTEADY_SHARED_GUARDED("per-lane shards; each written only by its owning lane, summed when idle")
  std::vector<Counters> counters_;
};

}  // namespace rocksteady

#endif  // ROCKSTEADY_SRC_SIM_NETWORK_H_
