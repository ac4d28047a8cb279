#include "src/sim/network.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace rocksteady {

Network::SharedDelivery* Network::AllocShared(size_t pool) {
  LanePool& p = pools_[pool];
  if (p.free_list == nullptr) {
    p.storage.push_back(std::make_unique<SharedDelivery>());
    p.free_list = p.storage.back().get();
  }
  SharedDelivery* shared = p.free_list;
  p.free_list = shared->next_free;
  shared->next_free = nullptr;
  return shared;
}

void Network::ReleaseShared(size_t pool, SharedDelivery* shared) {
  shared->fn = nullptr;  // Drop captured state while the node idles.
  LanePool& p = pools_[pool];
  shared->next_free = p.free_list;
  p.free_list = shared;
}

void Network::ScheduleDelivery(Simulator* src, NodeId to, Tick arrive, EventFn ev) {
  if (lanes_->SimFor(to) != src) {
    // The conservative horizon guarantees arrive >= the current window's
    // end (serialization >= net_per_message_ns, plus propagation), so the
    // mailbox post is always legal.
    lanes_->PostCrossLane(src, to, arrive, std::move(ev));
    return;
  }
  src->At(arrive, to, std::move(ev));
}

void Network::Send(NodeId from, NodeId to, size_t wire_bytes, NetFn on_delivery) {
  assert(from < egress_.size() && to < egress_.size());
  Simulator* src = lanes_->SimFor(from);
  Counters& stats = counters_[LaneOf(from)];
  if (node_down_[from]) {
    stats.dropped_from_down_node++;
    return;
  }
  const Tick serialization = costs_->Serialization(wire_bytes) + costs_->net_per_message_ns;
  Tick& track_free_at = wire_bytes >= kBulkThresholdBytes ? egress_[from].bulk_free_at
                                                         : egress_[from].small_free_at;
  const Tick depart = std::max(src->now(), track_free_at) + serialization;
  track_free_at = depart;
  stats.total_bytes_sent += wire_bytes;
  stats.total_messages++;

  // In-flight faults: the sender has paid for serialization either way; the
  // injector decides how many copies (0 = lost) arrive and with what extra
  // delay. Loss is modeled on the wire, not at the NIC.
  FaultInjector::Decision decision;
  if (fault_injector_ != nullptr) {
    decision = fault_injector_->OnMessage(from, to);
    if (decision.copies == 0) {
      stats.injected_drops++;
      return;
    }
    if (decision.copies > 1) {
      stats.injected_duplicates += static_cast<uint64_t>(decision.copies - 1);
    }
  }

  const Tick arrive = depart + costs_->net_propagation_ns;
  if (decision.copies == 1 && decision.extra_delay_ns[0] == 0) {
    ScheduleDelivery(src, to, arrive, [this, to, fn = std::move(on_delivery)]() mutable {
      if (node_down_[to]) {
        counters_[LaneOf(to)].dropped_to_down_node++;
        return;  // Dropped on the floor; RPC timeouts handle the rest.
      }
      fn();
    });
    return;
  }
  // Duplicated and/or delayed copies share one pooled delivery node; each
  // copy invokes the same callable, and the last one — which runs on the
  // receiver's lane — returns the node to the receiver's pool.
  SharedDelivery* shared = AllocShared(LaneOf(from));
  shared->fn = std::move(on_delivery);
  shared->refs = decision.copies;
  for (int copy = 0; copy < decision.copies; copy++) {
    const Tick extra = decision.extra_delay_ns[static_cast<size_t>(copy)];
    if (extra > 0) {
      stats.injected_delays++;
    }
    ScheduleDelivery(src, to, arrive + extra, [this, to, shared] {
      if (!node_down_[to]) {
        shared->fn();
      } else {
        counters_[LaneOf(to)].dropped_to_down_node++;
      }
      if (--shared->refs == 0) {
        ReleaseShared(LaneOf(to), shared);
      }
    });
  }
}

}  // namespace rocksteady
