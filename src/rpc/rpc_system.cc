#include "src/rpc/rpc_system.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/common/logging.h"

namespace rocksteady {

RpcEndpoint* RpcSystem::CreateEndpoint(CoreSet* cores, int lane) {
  const NodeId node = net_->AddNode(lane);
  assert(node == endpoints_.size());
  if (cores != nullptr) {
    cores->BindNode(node);
  }
  next_call_id_node_.emplace_back();
  endpoints_.push_back(std::make_unique<RpcEndpoint>(this, node, cores, SimOfLane(lane)));
  return endpoints_.back().get();
}

void RpcSystem::Call(NodeId from, NodeId to, std::unique_ptr<RpcRequest> request,
                     ResponseCallback cb, Tick timeout) {
  Simulator* csim = SimFor(from);
  const uint64_t call_id =
      ((static_cast<uint64_t>(from) + 1) << kCallerShift) | next_call_id_node_[from].value++;
  const Opcode op = request->op();
  const Tick deadline = timeout > 0 ? csim->now() + timeout : 0;

  PendingCall pending;
  pending.caller = from;
  pending.server = to;
  pending.request = IntrusivePtr<RpcRequest>(std::move(request));
  pending.cb = std::move(cb);
  pending.deadline = deadline;
  pending.wire = pending.request->WireSize();
  // Counted = the server keeps a dedup entry for this call (see Execute).
  pending.request->counted = timeout > 0 || net_->faults_ever_installed();
  pending.request->first_incomplete =
      Endpoint(from)->FirstIncomplete(to, call_id, pending.request->counted);
  if (timeout > 0) {
    auto expire = [this, csim, call_id, op, from, to] {
      // A call that completes first cancels this event, so it is pending.
      FlatMap64<PendingCall>& table = PendingFor(call_id);
      PendingCall* pending = table.Find(call_id);
      ROCKSTEADY_DCHECK(pending != nullptr);
      pending->deadline_timer = Simulator::Timer();  // Running: spent.
      LOG_DEBUG("rpc timeout: op=%d %u->%u after %d attempts at t=%.6f s", static_cast<int>(op),
                from, to, pending->attempts, static_cast<double>(csim->now()) / 1e9);
      Finish(table, call_id, pending)(Status::kServerDown, nullptr);
    };
    pending.deadline_timer = csim->AtCancellable(deadline, from, std::move(expire));
  }
  PendingFor(call_id)[call_id] = std::move(pending);
  SendAttempt(call_id);
}

RpcSystem::ResponseCallback RpcSystem::Finish(FlatMap64<PendingCall>& table, uint64_t call_id,
                                              PendingCall* pending) {
  Simulator* csim = SimFor(pending->caller);
  if (pending->deadline_timer.armed()) {
    csim->Cancel(&pending->deadline_timer);
  }
  if (pending->retransmit_timer.armed()) {
    csim->Cancel(&pending->retransmit_timer);
  }
  ResponseCallback cb = std::move(pending->cb);
  table.Erase(call_id);
  return cb;
}

void RpcSystem::SendAttempt(uint64_t call_id) {
  // A call that finishes cancels its retransmit timer, so it is pending.
  PendingCall* pending = PendingFor(call_id).Find(call_id);
  ROCKSTEADY_DCHECK(pending != nullptr);
  pending->retransmit_timer = Simulator::Timer();  // Spent, if this attempt is its event.
  pending->attempts++;
  if (pending->attempts > 1) {
    lane_retransmissions_[static_cast<size_t>(lanes_->lane_of(pending->caller))].value++;
  }
  const NodeId from = pending->caller;
  const NodeId to = pending->server;
  const size_t wire = pending->wire;
  // The delivery closure holds its own reference and *copies* it into
  // Deliver: the fabric may invoke the closure twice (duplication), so it
  // must not consume its captures.
  IntrusivePtr<RpcRequest> request = pending->request;
  net_->Send(from, to, wire,
             [this, from, to, call_id, request] {
               RpcEndpoint* endpoint = Endpoint(to);
               if (endpoint == nullptr) {
                 return;
               }
               endpoint->Deliver(from, request, call_id);
             });

  if (pending->deadline == 0) {
    return;  // Single attempt; the caller opted out of retransmission.
  }
  // Arm the next retransmission: capped exponential backoff + seeded jitter.
  // Nothing is scheduled at or past the deadline, so a dead server costs
  // exactly the deadline, never a tail of orphan timer events.
  const int shift = std::min(pending->attempts - 1, 20);
  const Tick backoff = std::min(costs_->rpc_retransmit_base_ns << shift,
                                costs_->rpc_retransmit_cap_ns);
  const Tick jitter =
      costs_->rpc_retransmit_jitter_ns > 0
          ? CallerRng(from).Uniform(static_cast<uint64_t>(costs_->rpc_retransmit_jitter_ns) + 1)
          : 0;
  Simulator* csim = SimFor(from);
  const Tick at = csim->now() + backoff + jitter;
  if (at >= pending->deadline) {
    return;
  }
  pending->retransmit_timer =
      csim->AtCancellable(at, from, [this, call_id] { SendAttempt(call_id); });
}

uint64_t RpcEndpoint::FirstIncomplete(NodeId server, uint64_t call_id, bool counted) {
  if (server >= issued_.size()) {
    issued_.resize(static_cast<size_t>(server) + 1);
  }
  IssuedCalls& issued = issued_[server];
  FlatMap64<RpcSystem::PendingCall>& pending = system_->PendingFor(call_id);
  while (issued.head < issued.ids.size() && pending.Find(issued.ids[issued.head]) == nullptr) {
    issued.head++;  // Completed or timed out.
  }
  if (issued.head * 2 >= issued.ids.size()) {  // Amortized O(1) compaction.
    issued.ids.erase(issued.ids.begin(), issued.ids.begin() + static_cast<ptrdiff_t>(issued.head));
    issued.head = 0;
  }
  if (counted) {
    issued.ids.push_back(call_id);
  }
  return issued.head < issued.ids.size() ? issued.ids[issued.head] : call_id;
}

std::vector<RpcEndpoint::DedupEntry>::iterator RpcEndpoint::CallerWindow::LowerBound(
    uint64_t call_id) {
  return std::lower_bound(entries.begin(), entries.end(), call_id,
                          [](const DedupEntry& entry, uint64_t id) { return entry.call_id < id; });
}

RpcEndpoint::DedupEntry* RpcEndpoint::CallerWindow::Find(uint64_t call_id) {
  auto it = LowerBound(call_id);
  return it != entries.end() && it->call_id == call_id ? &*it : nullptr;
}

void RpcEndpoint::CallerWindow::Advance(uint64_t first_incomplete) {
  if (first_incomplete <= finished_below) {
    return;
  }
  finished_below = first_incomplete;
  entries.erase(entries.begin(), LowerBound(first_incomplete));
}

RpcEndpoint::CallerWindow& RpcEndpoint::WindowOf(NodeId caller) {
  if (caller >= callers_.size()) {
    callers_.resize(static_cast<size_t>(caller) + 1);
  }
  return callers_[caller];
}

size_t RpcEndpoint::dedup_size() const {
  size_t total = 0;
  for (const CallerWindow& window : callers_) {
    total += window.entries.size();
  }
  return total;
}

void RpcEndpoint::Deliver(NodeId from, IntrusivePtr<RpcRequest> request, uint64_t call_id) {
  CallerWindow& window = WindowOf(from);
  if (window.Stale(*request, call_id)) {
    // The caller finished this call: it no longer waits for any answer.
    duplicates_suppressed_++;
    return;
  }
  if (DedupEntry* entry = window.Find(call_id); entry != nullptr) {
    if (entry->done) {
      // Retransmission of a completed call: replay the cached response
      // through the normal dispatch-tx path. The original execution already
      // happened exactly once; only the answer is resent.
      responses_replayed_++;
      RpcSystem* system = system_;
      const NodeId server_node = node_;
      auto transmit = [system, server_node, call_id, resp = entry->response->Clone()]() mutable {
        system->TransmitResponse(call_id, server_node, std::move(resp));
      };
      if (cores_ != nullptr) {
        cores_->EnqueueDispatch(system_->costs()->dispatch_tx_ns, std::move(transmit));
      } else {
        transmit();
      }
      return;
    }
    if (entry->epoch == CurrentEpoch()) {
      // The handler is still executing this call; drop the duplicate — the
      // response will go out (and be cached) when it finishes.
      duplicates_suppressed_++;
      return;
    }
    // The server crashed mid-execution and restarted: the old execution died
    // with its epoch, so Execute runs the call again.
  }

  if (cores_ != nullptr) {
    // The dispatch core polls the request off the NIC before the handler
    // sees it.
    cores_->EnqueueDispatch(system_->costs()->dispatch_per_rpc_ns,
                            [this, from, call_id, request = std::move(request)]() mutable {
                              Execute(from, std::move(request), call_id);
                            });
  } else {
    Execute(from, std::move(request), call_id);
  }
}

void RpcEndpoint::Execute(NodeId from, IntrusivePtr<RpcRequest> request, uint64_t call_id) {
  const size_t op_index = static_cast<size_t>(request->op());
  if (op_index >= kMaxOpcodes || !handlers_[op_index]) {
    LOG_ERROR("node %u: no handler for opcode %d", node_, static_cast<int>(request->op()));
    return;
  }
  // The watermark moves here, in dispatch order, not at delivery: copies of
  // a call its caller since gave up on (timed out) may still be queued
  // ahead of this request, and they run as if no watermark existed.
  CallerWindow& window = callers_[from];
  window.Advance(request->first_incomplete);
  // Re-check at execution time: two copies of one request can both clear
  // the delivery-time check (neither had an entry yet) and sit in the
  // dispatch queue together, where only the first may run the handler; and
  // a request that overtook this copy may have moved the watermark past it.
  if (window.Stale(*request, call_id)) {
    duplicates_suppressed_++;
    return;
  }
  DedupEntry* entry = window.Find(call_id);
  if (entry != nullptr) {
    if (entry->done) {
      responses_replayed_++;
      system_->TransmitResponse(call_id, node_, entry->response->Clone());
      return;
    }
    if (entry->epoch == CurrentEpoch()) {
      duplicates_suppressed_++;
      return;
    }
  }
  // Duplicate defense is only needed for a counted call: the caller can
  // retransmit, or the fabric has (ever) had an injector that can duplicate
  // in flight. Otherwise skip the dedup entry and the response-clone cache —
  // the bulk of steady-state RPC churn.
  if (request->counted) {
    // The dedup entry is created here — when execution truly starts — not at
    // delivery: queued dispatch work can be wiped by Halt(), and an entry
    // created then would swallow post-restart retransmissions forever.
    if (entry == nullptr) {
      entry = &*window.entries.emplace(window.LowerBound(call_id));
      entry->call_id = call_id;
    }
    entry->epoch = CurrentEpoch();
  }

  const Handler& handler = handlers_[op_index];
  RpcContext context;
  context.sim = sim_;
  context.from = from;
  context.request = std::move(request);
  RpcEndpoint* self = this;
  context.reply = [self, call_id](std::unique_ptr<RpcResponse> response) {
    // Cache a clone for duplicate-request replay (only while this call's
    // dedup entry is live), then transmit.
    RpcSystem* system = self->system_;
    CallerWindow& caller = self->callers_[RpcSystem::CallerOf(call_id)];
    if (DedupEntry* entry = caller.Find(call_id); entry != nullptr) {
      entry->done = true;
      entry->response = response->Clone();
    }
    const NodeId server_node = self->node_;
    auto transmit = [system, server_node, call_id, resp = std::move(response)]() mutable {
      if (resp != nullptr) {
        system->TransmitResponse(call_id, server_node, std::move(resp));
      }
    };
    if (self->cores_ != nullptr) {
      // The worker hands the response to the dispatch core, which posts it
      // to the transport.
      self->cores_->EnqueueDispatch(system->costs()->dispatch_tx_ns, std::move(transmit));
    } else {
      transmit();
    }
  };
  handler(std::move(context));
}

uint64_t RpcEndpoint::CurrentEpoch() const { return cores_ != nullptr ? cores_->epoch() : 0; }

void RpcSystem::TransmitResponse(uint64_t call_id, NodeId server_node,
                                 std::unique_ptr<RpcResponse> response) {
  // Server lane: the caller's pending table is not ours to read. The
  // call_id carries the caller id; a response to a caller that already
  // gave up is dropped on the caller's own lane below instead of here.
  const NodeId caller = CallerOf(call_id);
  const size_t wire = response->WireSize();

  // The pending entry survives until the response actually reaches the
  // caller: if the fabric eats this response, a later retransmission (or a
  // server-side replay of the cached response) still has a home to land in.
  // The delivery closure may run twice (fabric duplication): the first copy
  // moves the response out; a loser that arrives while the winner is still
  // queued for dispatch pays the poll and bails on the null.
  net_->Send(server_node, caller, wire,
             [this, caller, call_id, resp = std::move(response)]() mutable {
               // A response to a call that already completed or gave up is
               // dropped at the caller's NIC, before the dispatch poll. The
               // server cannot tell it is stale until the caller's next
               // request moves its watermark, so a retransmission of a
               // completed call may still get one; charging each a poll
               // makes a congested caller slower, which makes it retransmit
               // more — a storm that outlives its cause (a recovery master's
               // re-replication burst sustained one for seconds).
               if (PendingFor(call_id).Find(call_id) == nullptr) {
                 return;
               }
               RpcEndpoint* endpoint = Endpoint(caller);
               auto deliver = [this, call_id, resp = std::move(resp)]() mutable {
                 FlatMap64<PendingCall>& table = PendingFor(call_id);
                 PendingCall* pending = table.Find(call_id);
                 if (pending == nullptr) {
                   return;  // A duplicate response; the first copy won.
                 }
                 if (resp == nullptr) {
                   return;  // This network-duplicated copy lost the move race.
                 }
                 Finish(table, call_id, pending)(Status::kOk, std::move(resp));
               };
               if (endpoint != nullptr && endpoint->cores() != nullptr) {
                 // Responses are polled off the NIC by the caller's dispatch core too.
                 endpoint->cores()->EnqueueDispatch(costs_->dispatch_per_rpc_ns,
                                                   std::move(deliver));
               } else {
                 deliver();
               }
             });
}

}  // namespace rocksteady
