#include "src/rpc/rpc_system.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/common/dcheck.h"
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
  Endpoint(from)->AttachAcks(to, pending.request.get());
  PendingFor(call_id)[call_id] = std::move(pending);

  if (timeout > 0) {
    csim->At(deadline, from, [this, csim, call_id, op, from, to] {
      FlatMap64<PendingCall>& table = PendingFor(call_id);
      PendingCall* pending = table.Find(call_id);
      if (pending == nullptr) {
        return;  // Already completed.
      }
      LOG_DEBUG("rpc timeout: op=%d %u->%u after %d attempts at t=%.6f s", static_cast<int>(op),
                from, to, pending->attempts, static_cast<double>(csim->now()) / 1e9);
      ResponseCallback cb = std::move(pending->cb);
      table.Erase(call_id);
      cb(Status::kServerDown, nullptr);
    });
  }
  SendAttempt(call_id);
}

void RpcSystem::SendAttempt(uint64_t call_id) {
  FlatMap64<PendingCall>& table = PendingFor(call_id);
  PendingCall* pending = table.Find(call_id);
  if (pending == nullptr) {
    return;  // Completed or deadlined while the retransmit timer was armed.
  }
  pending->attempts++;
  if (pending->attempts > 1) {
    lane_retransmissions_[static_cast<size_t>(lanes_->lane_of(pending->caller))].value++;
  }
  const NodeId from = pending->caller;
  const NodeId to = pending->server;
  const bool retransmittable = pending->deadline != 0;
  const size_t wire = pending->wire;
  // The delivery closure holds its own reference and *copies* it into
  // Deliver: the fabric may invoke the closure twice (duplication), so it
  // must not consume its captures.
  IntrusivePtr<RpcRequest> request = pending->request;
  net_->Send(from, to, wire,
             [this, from, to, call_id, retransmittable, request] {
               RpcEndpoint* endpoint = Endpoint(to);
               if (endpoint == nullptr) {
                 return;
               }
               endpoint->Deliver(from, request, call_id, retransmittable);
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
  csim->At(at, from, [this, call_id] { SendAttempt(call_id); });
}

std::unique_ptr<RpcResponse> RpcEndpoint::DedupEntry::Replay() const {
  if (response != nullptr) {
    return response->Clone();
  }
  auto size_only = std::make_unique<SizeOnlyResponse>();
  size_only->wire = acked_wire;
  return size_only;
}

void RpcEndpoint::ApplyAcks(const RpcRequest& request) {
  for (size_t i = 0; i < request.ack_count; i++) {
    DedupEntry* entry = dedup_.Find(request.acks[i]);
    if (entry != nullptr && entry->done && entry->response != nullptr) {
      entry->acked_wire = static_cast<uint32_t>(entry->response->WireSize());
      entry->response.reset();
    }
  }
}

void RpcEndpoint::RecordAck(NodeId server, uint64_t call_id) {
  if (server >= unacked_.size()) {
    unacked_.resize(static_cast<size_t>(server) + 1);
  }
  unacked_[server].push_back(call_id);
}

void RpcEndpoint::AttachAcks(NodeId server, RpcRequest* request) {
  if (server >= unacked_.size()) {
    return;
  }
  std::vector<uint64_t>& acks = unacked_[server];
  const size_t count = std::min(acks.size(), kMaxAcksPerRequest);
  for (size_t i = 0; i < count; i++) {
    request->acks[i] = acks.back();
    acks.pop_back();
  }
  request->ack_count = static_cast<uint8_t>(count);
}

void RpcEndpoint::Deliver(NodeId from, IntrusivePtr<RpcRequest> request, uint64_t call_id,
                          bool retransmittable) {
  PruneDedup();
  ApplyAcks(*request);
  if (DedupEntry* entry = dedup_.Find(call_id); entry != nullptr) {
    if (entry->done) {
      // Retransmission of a completed call: replay the cached response
      // through the normal dispatch-tx path. The original execution already
      // happened exactly once; only the answer is resent.
      responses_replayed_++;
      std::unique_ptr<RpcResponse> replay = entry->Replay();
      RpcSystem* system = system_;
      const NodeId server_node = node_;
      auto transmit = [system, server_node, call_id, resp = std::move(replay)]() mutable {
        if (resp != nullptr) {
          system->TransmitResponse(call_id, server_node, std::move(resp));
        }
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
    // with its epoch, so run the call again.
    dedup_.Erase(call_id);
  }

  if (cores_ != nullptr) {
    // The dispatch core polls the request off the NIC before the handler
    // sees it.
    cores_->EnqueueDispatch(
        system_->costs()->dispatch_per_rpc_ns,
        [this, from, call_id, retransmittable, request = std::move(request)]() mutable {
          Execute(from, std::move(request), call_id, retransmittable);
        });
  } else {
    Execute(from, std::move(request), call_id, retransmittable);
  }
}

void RpcEndpoint::Execute(NodeId from, IntrusivePtr<RpcRequest> request, uint64_t call_id,
                          bool retransmittable) {
  const size_t op_index = static_cast<size_t>(request->op());
  if (op_index >= kMaxOpcodes || !handlers_[op_index]) {
    LOG_ERROR("node %u: no handler for opcode %d", node_, static_cast<int>(request->op()));
    return;
  }
  // Re-check dedup at execution time: two copies of one request can both
  // clear the delivery-time check (neither had an entry yet) and sit in the
  // dispatch queue together; only the first may run the handler.
  if (DedupEntry* entry = dedup_.Find(call_id); entry != nullptr) {
    if (entry->done) {
      responses_replayed_++;
      system_->TransmitResponse(call_id, node_, entry->Replay());
      return;
    }
    if (entry->epoch == CurrentEpoch()) {
      duplicates_suppressed_++;
      return;
    }
  }
  // Duplicate defense is only needed when a second copy of this call_id can
  // exist: the caller can retransmit, or the fabric has (ever) had an
  // injector that can duplicate in flight. Otherwise skip the dedup entry
  // and the response-clone cache — the bulk of steady-state RPC churn.
  const bool dedupe = retransmittable || system_->net()->faults_ever_installed();
  if (dedupe) {
    // The dedup entry is created here — when execution truly starts — not at
    // delivery: queued dispatch work can be wiped by Halt(), and an entry
    // created then would swallow post-restart retransmissions forever.
    DedupEntry& entry = dedup_[call_id];
    entry.epoch = CurrentEpoch();
    entry.done = false;
    dedup_created_.emplace_back(sim_->now(), call_id);
  }

  const Handler& handler = handlers_[op_index];
  RpcContext context;
  context.sim = sim_;
  context.from = from;
  context.request = std::move(request);
  RpcEndpoint* self = this;
  context.reply = [self, call_id](std::unique_ptr<RpcResponse> response) {
    // Cache a clone for duplicate-request replay (only when a dedup entry
    // was created for this execution), then transmit.
    RpcSystem* system = self->system_;
    if (DedupEntry* entry = self->dedup_.Find(call_id); entry != nullptr) {
      entry->done = true;
      entry->response = response->Clone();
      entry->completed_at = self->sim_->now();
      self->dedup_fifo_.emplace_back(entry->completed_at, call_id);
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

void RpcEndpoint::PruneDedup() {
  const Tick now = sim_->now();
  const Tick retention = system_->costs()->rpc_dedup_retention_ns;
  while (!dedup_fifo_.empty() && dedup_fifo_.front().first + retention < now) {
    const uint64_t call_id = dedup_fifo_.front().second;
    dedup_fifo_.pop_front();
    if (DedupEntry* entry = dedup_.Find(call_id); entry != nullptr && entry->done) {
      dedup_.Erase(call_id);
    }
  }
  // Entries that never completed — the execution was wiped by a crash, so no
  // reply (and no dedup_fifo_ record) ever happened — would otherwise sit in
  // dedup_ forever. Expire them from the creation-time fifo once past the
  // retention horizon; an entry still executing in the *current* epoch is
  // genuinely in flight and is re-armed for a later look instead.
  while (!dedup_created_.empty() && dedup_created_.front().first + retention < now) {
    const uint64_t call_id = dedup_created_.front().second;
    dedup_created_.pop_front();
    DedupEntry* entry = dedup_.Find(call_id);
    if (entry == nullptr) {
      continue;  // Already expired via the completion fifo.
    }
    if (entry->done) {
      continue;  // The completion fifo owns its expiry.
    }
    if (entry->epoch == CurrentEpoch()) {
      dedup_created_.emplace_back(now, call_id);  // Still executing; re-check later.
      continue;
    }
    dedup_.Erase(call_id);  // Orphaned by a crash; the caller long since timed out.
  }
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
               // server cannot tell it is stale, so every retransmission of
               // a completed call sends one; charging each a poll makes a
               // congested caller slower, which makes it retransmit more — a
               // storm that outlives its cause (a recovery master's
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
                 // An acked call's replay never gets here: the caller
                 // erased the pending entry before it acked the call, so
                 // the NIC check above dropped it.
                 ROCKSTEADY_DCHECK(dynamic_cast<const SizeOnlyResponse*>(resp.get()) == nullptr);
                 ResponseCallback cb = std::move(pending->cb);
                 const NodeId server = pending->server;
                 // Ack only what the server cached (see Execute's dedupe).
                 const bool cached = pending->deadline != 0 || net_->faults_ever_installed();
                 table.Erase(call_id);
                 if (cached) {
                   Endpoint(CallerOf(call_id))->RecordAck(server, call_id);
                 }
                 cb(Status::kOk, std::move(resp));
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
