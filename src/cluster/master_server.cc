#include "src/cluster/master_server.h"

#include <cassert>

#include "src/cluster/recovery.h"
#include "src/common/annotations.h"
#include "src/common/dcheck.h"
#include "src/common/logging.h"

namespace rocksteady {

MasterServer::MasterServer(Coordinator* coordinator, const CostModel* costs,
                           const MasterConfig& config, int lane)
    : coordinator_(coordinator),
      costs_(costs),
      config_(config),
      objects_(ObjectManagerOptions{config.hash_table_log2_buckets, config.segment_size}),
      client_latency_(costs->latency_window_ns, costs->latency_window_buckets) {
  sim_ = coordinator_->rpc().SimOfLane(lane);
  cores_ = std::make_unique<CoreSet>(sim_, config.num_workers);
  cores_->SetQueueBound(Priority::kClient, config.client_queue_hard_limit);
  cores_->SetQueueBound(Priority::kReplication, config.replication_queue_bound);
  cores_->SetQueueBound(Priority::kMigration, config.migration_queue_bound);
  endpoint_ = coordinator_->rpc().CreateEndpoint(cores_.get(), lane);
  rng_ = &coordinator_->rpc().CallerRng(endpoint_->node());
  id_ = coordinator_->RegisterMaster(this);
  replicas_ = std::make_unique<ReplicaManager>(&coordinator_->rpc(), id_, endpoint_->node());
  RegisterHandlers();
}

void MasterServer::RegisterHandlers() {
  endpoint_->Register(Opcode::kRead,
                      ROCKSTEADY_IDEMPOTENT("pure read")
                      [this](RpcContext c) { HandleRead(std::move(c)); });
  endpoint_->Register(Opcode::kWrite,
                      ROCKSTEADY_IDEMPOTENT("re-applying the same value is last-writer-wins "
                                            "on identical bytes; conditional writes fail the "
                                            "version precondition instead of double-applying")
                      [this](RpcContext c) { HandleWrite(std::move(c)); });
  endpoint_->Register(Opcode::kRemove,
                      ROCKSTEADY_IDEMPOTENT("removing an absent key reports kObjectNotFound "
                                            "without touching state")
                      [this](RpcContext c) { HandleRemove(std::move(c)); });
  endpoint_->Register(Opcode::kMultiGet,
                      ROCKSTEADY_IDEMPOTENT("pure read")
                      [this](RpcContext c) { HandleMultiGet<MultiGetRequest>(std::move(c)); });
  endpoint_->Register(Opcode::kMultiGetHash,
                      ROCKSTEADY_IDEMPOTENT("pure read")
                      [this](RpcContext c) { HandleMultiGet<MultiGetHashRequest>(std::move(c)); });
  endpoint_->Register(Opcode::kIndexLookup,
                      ROCKSTEADY_IDEMPOTENT("pure read")
                      [this](RpcContext c) { HandleIndexLookup(std::move(c)); });
  endpoint_->Register(Opcode::kIndexInsert,
                      ROCKSTEADY_IDEMPOTENT("re-inserting an existing (key, primary) index "
                                            "entry is a set-insert no-op")
                      [this](RpcContext c) { HandleIndexInsert(std::move(c)); });
  endpoint_->Register(Opcode::kBackupWrite,
                      ROCKSTEADY_IDEMPOTENT("segment-addressed append: re-execution rewrites "
                                            "the same bytes at the same segment offset")
                      [this](RpcContext c) { HandleBackupWrite(std::move(c)); });
  endpoint_->Register(Opcode::kGetRecoveryData,
                      ROCKSTEADY_IDEMPOTENT("pure read of sealed segments")
                      [this](RpcContext c) { HandleGetRecoveryData(std::move(c)); });
  // Failure-detector probe: answered straight off the dispatch core — a
  // halted server simply never replies and the probe times out. The reply
  // carries the optional piggyback payload (load telemetry) so the existing
  // probe cadence doubles as the telemetry channel.
  endpoint_->Register(Opcode::kPing,
                      ROCKSTEADY_IDEMPOTENT("pure read (liveness + telemetry snapshot)")
                      [this](RpcContext c) {
    auto response = std::make_unique<PingResponse>();
    response->server = id_;
    if (piggyback_provider) {
      response->piggyback = piggyback_provider();
    }
    c.reply(std::move(response));
  });
  // Coordinator -> master hand-offs: the coordinator never touches this
  // server's state itself.
  endpoint_->Register(Opcode::kRecover,
                      ROCKSTEADY_IDEMPOTENT("installs ranges kRecovering and replays by the "
                                            "version rule: a re-run replays the same entries")
                      [this](RpcContext c) { RunRecovery(this, std::move(c)); });
  endpoint_->Register(Opcode::kSplitTablet,
                      ROCKSTEADY_IDEMPOTENT("splitting at an existing boundary is a no-op")
                      [this](RpcContext c) {
    auto& request = c.As<SplitTabletRequest>();
    auto response = std::make_unique<StatusResponse>();
    response->status = objects_.tablets().Split(request.table, request.split_hash);
    c.reply(std::move(response));
  });
  endpoint_->Register(Opcode::kSetDraining,
                      ROCKSTEADY_IDEMPOTENT("epoch-ordered latch: an older or repeated latch "
                                            "is ignored")
                      [this](RpcContext c) {
    auto& request = c.As<SetDrainingRequest>();
    if (request.epoch > drain_latch_epoch_) {
      drain_latch_epoch_ = request.epoch;
      SetDraining(request.draining);
    }
    c.reply(std::make_unique<StatusResponse>());
  });
}

Status MasterServer::CheckReadable(TableId table, KeyHash hash, Tick* retry_after) {
  const Tablet* tablet = objects_.tablets().Find(table, hash);
  if (tablet == nullptr || tablet->state == TabletState::kMigrationSource) {
    // Not owned here (anymore): the client must refresh its tablet map.
    return Status::kWrongServer;
  }
  if (tablet->state == TabletState::kRecovering) {
    *retry_after = sim().now() + costs_->recovering_retry_hint_ns;
    return Status::kRetryLater;
  }
  if (tablet->state == TabletState::kMigrationTarget &&
      !objects_.hash_table().Lookup(hash).valid()) {
    if (migration_hooks_ == nullptr) {
      return Status::kObjectNotFound;
    }
    if (migration_hooks_->IsKnownAbsent(table, hash)) {
      return Status::kObjectNotFound;
    }
    *retry_after = migration_hooks_->OnMissingRecord(table, hash);
    return Status::kRetryLater;
  }
  return Status::kOk;
}

void MasterServer::FillLoadHeader(SourceLoadHeader* load) {
  load->valid = true;
  load->client_queue_depth = static_cast<uint32_t>(cores_->QueuedTasks(Priority::kClient));
  load->dispatch_backlog_ns = cores_->DispatchBacklog();
  load->recent_p999_ns = RecentClientP999();
}

void MasterServer::HandleRead(RpcContext context) {
  if (ShedIfOverloaded<ReadResponse>(&context)) {
    return;
  }
  auto& request = context.As<ReadRequest>();

  // Synchronous-PriorityPull mode (§4.4 comparison): the hook takes over
  // reads of not-yet-arrived records and holds a worker while it fetches.
  if (migration_hooks_ != nullptr) {
    const Tablet* tablet = objects_.tablets().Find(request.table, request.hash);
    if (tablet != nullptr && tablet->state == TabletState::kMigrationTarget &&
        !objects_.hash_table().Lookup(request.hash).valid() &&
        !migration_hooks_->IsKnownAbsent(request.table, request.hash) &&
        migration_hooks_->ServiceReadSynchronously(request.table, request.hash, &context)) {
      return;  // The hook owns the reply.
    }
  }

  // The response is built directly into the object that goes on the wire:
  // the work closure holds a raw pointer (plus its own request reference),
  // the done closure owns the response and the reply — no shared context,
  // no response copy. Both closures fit their inline budgets.
  const Tick arrival = sim().now();
  auto response = std::make_unique<ReadResponse>();
  ReadResponse* resp = response.get();
  IntrusivePtr<RpcRequest> request_ref = std::move(context.request);
  cores_->EnqueueWorker(
      {Priority::kClient,
       [this, request_ref, resp] {
         auto& req = static_cast<ReadRequest&>(*request_ref);
         Tick retry_after = 0;
         resp->status = CheckReadable(req.table, req.hash, &retry_after);
         resp->retry_after = retry_after;
         size_t bytes = 0;
         if (resp->status == Status::kOk) {
           auto read = objects_.Read(req.table, req.key, req.hash);
           if (read.ok()) {
             resp->value.assign(read->value);
             resp->version = read->version;
             bytes = read->value.size();
             reads_served_++;
             RecordAccess(req.table, req.hash, /*is_write=*/false, bytes);
           } else {
             resp->status = read.status();
           }
         }
         return costs_->ReadCost(bytes);
       },
       [this, reply = std::move(context.reply), response = std::move(response),
        arrival]() mutable {
         RecordClientLatency(arrival);
         reply(std::move(response));
       }});
}

void MasterServer::HandleWrite(RpcContext context) {
  if (ShedIfOverloaded<WriteResponse>(&context)) {
    return;
  }
  // One shared state object replaces the separate shared context, shared
  // response, and shared LogRef (and the response copies at reply time).
  // Shared (not unique) because the replication continuation below passes
  // through ReplicaManager's copyable std::function plumbing.
  struct WriteOp {
    IntrusivePtr<RpcRequest> request;
    ReplyFn reply;
    std::unique_ptr<WriteResponse> response;
    LogRef ref;
    Tick arrival = 0;
  };
  auto op = std::make_shared<WriteOp>();
  op->request = std::move(context.request);
  op->reply = std::move(context.reply);
  op->response = std::make_unique<WriteResponse>();
  op->arrival = sim().now();
  WriteOp* p = op.get();
  cores_->EnqueueWorker(
      {Priority::kClient,
       [this, p] {
         auto& req = static_cast<WriteRequest&>(*p->request);
         WriteResponse* response = p->response.get();
         const Tablet* tablet = objects_.tablets().Find(req.table, req.hash);
         if (tablet == nullptr || tablet->state == TabletState::kMigrationSource) {
           response->status = Status::kWrongServer;
           return Tick{200};
         }
         if (tablet->state == TabletState::kRecovering) {
           // Replay of the crashed owner's log is still applying entries
           // whose versions outrank anything this master's counter would
           // assign; accepting a write now hands it a version the replay
           // can silently clobber. Bounce until the tablet opens.
           response->status = Status::kRetryLater;
           response->retry_after = sim().now() + costs_->recovering_retry_hint_ns;
           return Tick{200};
         }
         auto version = objects_.Write(req.table, req.key, req.hash, req.value, &p->ref);
         if (!version.ok()) {
           response->status = version.status();
           return Tick{500};
         }
         response->version = *version;
         writes_served_++;
         RecordAccess(req.table, req.hash, /*is_write=*/true, req.value.size());
         // The entry just appended: header + key + value.
         const size_t entry_length = sizeof(LogEntryHeader) + req.key.size() + req.value.size();
         // Worker cost covers the append plus posting replication RPCs.
         return costs_->WriteCost(req.value.size()) + costs_->ReplicationSrcCost(entry_length);
       },
       [this, op] {
         auto& req = static_cast<WriteRequest&>(*op->request);
         if (op->response->status != Status::kOk) {
           RecordClientLatency(op->arrival);
           op->reply(std::move(op->response));
           return;
         }
         // Secondary-index maintenance: fire-and-forget to the indexlet
         // owner (population-time path; Figure 4's hot path is reads).
         if (!req.secondary_key.empty()) {
           const auto* config = coordinator_->GetIndexConfig(req.table, 1);
           if (config != nullptr) {
             for (const auto& indexlet : *config) {
               if (req.secondary_key >= indexlet.start_key &&
                   (indexlet.end_key.empty() || req.secondary_key < indexlet.end_key)) {
                 auto insert = std::make_unique<IndexInsertRequest>();
                 insert->table = req.table;
                 insert->index_id = 1;
                 insert->secondary_key = req.secondary_key;
                 insert->primary_hash = req.hash;
                 rpc().Call(node(), indexlet.owner_node, std::move(insert),
                            [](Status, std::unique_ptr<RpcResponse>) {});
                 break;
               }
             }
           }
         }
         // Durable write: ack only after replication (§2: ~15 us writes).
         ReplicateEntry(op->ref, [this, op](Status status) {
           op->response->status = status;
           RecordClientLatency(op->arrival);
           op->reply(std::move(op->response));
         });
       }});
}

void MasterServer::ReplicateEntry(LogRef ref, std::function<void(Status)> done) {
  ByteSlice entry;
  if (!objects_.log().EntrySlice(ref, &entry)) {
    done(Status::kCorruptData);
    return;
  }
  replicas_->Replicate({ref.segment_id(), ref.offset(), std::move(entry), /*seal=*/false},
                       /*bulk=*/false, std::move(done));
}

void MasterServer::ReplicateChunks(std::vector<ReplicaChunk> chunks, Priority priority,
                                   bool bulk, std::function<void(Status)> done) {
  if (chunks.empty()) {
    done(Status::kOk);
    return;
  }
  struct FanIn {
    std::vector<ReplicaChunk> chunks;
    size_t remaining;
    Status worst = Status::kOk;
    std::function<void(Status)> done;
  };
  auto fan = std::make_shared<FanIn>();
  fan->remaining = chunks.size();
  fan->chunks = std::move(chunks);
  fan->done = std::move(done);
  for (size_t i = 0; i < fan->chunks.size(); i++) {
    cores_->EnqueueWorker(
        {priority,
         [this, fan, i] { return costs_->ReplicationSrcCost(fan->chunks[i].data.size()); },
         [this, fan, i, bulk] {
           replicas_->Replicate(std::move(fan->chunks[i]), bulk, [fan](Status status) {
             if (status != Status::kOk) {
               fan->worst = status;
             }
             if (--fan->remaining == 0) {
               fan->done(fan->worst);
             }
           });
         }});
  }
}

void MasterServer::HandleRemove(RpcContext context) {
  if (ShedIfOverloaded<RemoveResponse>(&context)) {
    return;
  }
  // Same shared single-state-object shape as HandleWrite (the replication
  // continuation needs a copyable handle).
  struct RemoveOp {
    IntrusivePtr<RpcRequest> request;
    ReplyFn reply;
    std::unique_ptr<RemoveResponse> response;
    LogRef ref;
    Tick arrival = 0;
  };
  auto op = std::make_shared<RemoveOp>();
  op->request = std::move(context.request);
  op->reply = std::move(context.reply);
  op->response = std::make_unique<RemoveResponse>();
  op->arrival = sim().now();
  RemoveOp* p = op.get();
  cores_->EnqueueWorker(
      {Priority::kClient,
       [this, p] {
         auto& req = static_cast<RemoveRequest&>(*p->request);
         RemoveResponse* response = p->response.get();
         const Tablet* tablet = objects_.tablets().Find(req.table, req.hash);
         if (tablet == nullptr || tablet->state == TabletState::kMigrationSource) {
           response->status = Status::kWrongServer;
           return Tick{200};
         }
         if (tablet->state == TabletState::kRecovering) {
           // Same version-clobber hazard as HandleWrite: the tombstone's
           // version must outrank the replayed log or the delete undoes.
           response->status = Status::kRetryLater;
           response->retry_after = sim().now() + costs_->recovering_retry_hint_ns;
           return Tick{200};
         }
         // On a migration target, deletes of not-yet-arrived records still
         // write a (referenced) tombstone so late-arriving older copies
         // cannot resurrect the key.
         const bool tombstone_if_missing = tablet->state == TabletState::kMigrationTarget;
         auto version =
             objects_.Remove(req.table, req.key, req.hash, &p->ref, tombstone_if_missing);
         if (!version.ok()) {
           response->status = version.status();
         } else {
           response->version = *version;
           RecordAccess(req.table, req.hash, /*is_write=*/true, 0);
         }
         return costs_->WriteCost(0);
       },
       [this, op] {
         if (op->response->status != Status::kOk) {
           RecordClientLatency(op->arrival);
           op->reply(std::move(op->response));
           return;
         }
         // The tombstone must be durable before the delete is acked, or
         // recovery would resurrect the object from the backups.
         ReplicateEntry(op->ref, [this, op](Status status) {
           op->response->status = status;
           RecordClientLatency(op->arrival);
           op->reply(std::move(op->response));
         });
       }});
}

namespace {

// The one read that differs between the two multi-gets: by full key
// (Figure 3) or by primary-key hash alone (index-driven, Figure 4).
Result<ObjectView> MultiGetRead(const ObjectManager& objects, const MultiGetRequest& req,
                                size_t i) {
  return objects.Read(req.table, req.keys[i], req.hashes[i]);
}
Result<ObjectView> MultiGetRead(const ObjectManager& objects, const MultiGetHashRequest& req,
                                size_t i) {
  return objects.ReadByHash(req.table, req.hashes[i]);
}

}  // namespace

template <typename Request>
void MasterServer::HandleMultiGet(RpcContext context) {
  if (ShedIfOverloaded<MultiGetResponse>(&context)) {
    return;
  }
  const Tick arrival = sim().now();
  auto response = std::make_unique<MultiGetResponse>();
  MultiGetResponse* resp = response.get();
  IntrusivePtr<RpcRequest> request_ref = std::move(context.request);
  cores_->EnqueueWorker(
      {Priority::kClient,
       [this, request_ref, resp] {
         MultiGetResponse* response = resp;
         auto& req = static_cast<Request&>(*request_ref);
         size_t bytes = 0;
         for (size_t i = 0; i < req.hashes.size(); i++) {
           Tick retry_after = 0;
           Status status = CheckReadable(req.table, req.hashes[i], &retry_after);
           std::string value;
           if (status == Status::kOk) {
             auto read = MultiGetRead(objects_, req, i);
             if (read.ok()) {
               value.assign(read->value);
               bytes += value.size();
               reads_served_++;
               RecordAccess(req.table, req.hashes[i], /*is_write=*/false, value.size());
             } else {
               status = read.status();
             }
           } else if (status == Status::kRetryLater) {
             response->retry_after = std::max(response->retry_after, retry_after);
           }
           response->statuses.push_back(status);
           response->values.push_back(std::move(value));
           if (status != Status::kOk && response->status == Status::kOk) {
             response->status = status;
           }
         }
         const size_t n = req.hashes.size();
         return costs_->ReadCost(bytes) +
                costs_->multiget_per_key_ns * static_cast<Tick>(n > 0 ? n - 1 : 0);
       },
       [this, reply = std::move(context.reply), response = std::move(response),
        arrival]() mutable {
         RecordClientLatency(arrival);
         reply(std::move(response));
       }});
}

Indexlet* MasterServer::AddIndexlet(TableId table, uint8_t index_id, std::string start_key,
                                    std::string end_key) {
  indexlets_.push_back(
      std::make_unique<Indexlet>(table, index_id, std::move(start_key), std::move(end_key)));
  return indexlets_.back().get();
}

Indexlet* MasterServer::FindIndexlet(TableId table, uint8_t index_id,
                                     std::string_view secondary_key) {
  for (const auto& indexlet : indexlets_) {
    if (indexlet->table() == table && indexlet->index_id() == index_id &&
        indexlet->ContainsKey(secondary_key)) {
      return indexlet.get();
    }
  }
  return nullptr;
}

void MasterServer::HandleIndexLookup(RpcContext context) {
  auto response = std::make_unique<IndexLookupResponse>();
  IndexLookupResponse* resp = response.get();
  IntrusivePtr<RpcRequest> request_ref = std::move(context.request);
  cores_->EnqueueWorker(
      {Priority::kClient,
       [this, request_ref, resp] {
         auto& req = static_cast<IndexLookupRequest&>(*request_ref);
         Indexlet* indexlet = FindIndexlet(req.table, req.index_id, req.start_key);
         if (indexlet == nullptr) {
           resp->status = Status::kWrongServer;
           return Tick{300};
         }
         resp->hashes = indexlet->Scan(req.start_key, req.count);
         return costs_->index_lookup_ns +
                costs_->index_per_result_ns * static_cast<Tick>(resp->hashes.size());
       },
       [reply = std::move(context.reply), response = std::move(response)]() mutable {
         reply(std::move(response));
       }});
}

void MasterServer::HandleIndexInsert(RpcContext context) {
  auto response = std::make_unique<StatusResponse>();
  StatusResponse* resp = response.get();
  IntrusivePtr<RpcRequest> request_ref = std::move(context.request);
  cores_->EnqueueWorker(
      {Priority::kClient,
       [this, request_ref, resp] {
         auto& req = static_cast<IndexInsertRequest&>(*request_ref);
         Indexlet* indexlet = FindIndexlet(req.table, req.index_id, req.secondary_key);
         if (indexlet == nullptr) {
           resp->status = Status::kWrongServer;
         } else {
           indexlet->Insert(req.secondary_key, req.primary_hash);
         }
         return costs_->index_lookup_ns;
       },
       [reply = std::move(context.reply), response = std::move(response)]() mutable {
         reply(std::move(response));
       }});
}

void MasterServer::HandleBackupWrite(RpcContext context) {
  const bool bulk = context.As<BackupWriteRequest>().bulk;
  // Admission control: past the queue bound, reject instead of queueing —
  // the ReplicaManager re-issues with seeded backoff (backup writes are
  // idempotent), so durability is preserved while the backlog drains.
  if (cores_->QueueFull(bulk ? Priority::kMigration : Priority::kReplication)) {
    replication_rejects_++;
    auto response = std::make_unique<StatusResponse>();
    response->status = Status::kRetryLater;
    context.reply(std::move(response));
    return;
  }
  IntrusivePtr<RpcRequest> request_ref = std::move(context.request);
  cores_->EnqueueWorker(
      {bulk ? Priority::kMigration : Priority::kReplication,
       [this, request_ref] {
         auto& req = static_cast<BackupWriteRequest&>(*request_ref);
         backup_.Write(req.master, req.segment_id, req.offset, req.data, req.seal);
         return costs_->BackupWriteCost(req.data.size());
       },
       [reply = std::move(context.reply)]() mutable {
         reply(std::make_unique<StatusResponse>());
       }});
}

void MasterServer::HandleGetRecoveryData(RpcContext context) {
  auto response = std::make_unique<GetRecoveryDataResponse>();
  GetRecoveryDataResponse* resp = response.get();
  IntrusivePtr<RpcRequest> request_ref = std::move(context.request);
  cores_->EnqueueWorker(
      {Priority::kReplication,
       [this, request_ref, resp] {
         auto& req = static_cast<GetRecoveryDataRequest&>(*request_ref);
         resp->segments = backup_.GetRecoveryData(req.crashed_master, req.min_segment_id);
         size_t bytes = 0;
         for (const auto& segment : resp->segments) {
           bytes += segment.data.size();
         }
         return costs_->BackupWriteCost(bytes);
       },
       // The response is moved (not copied): recovery segments can be large.
       [reply = std::move(context.reply), response = std::move(response)]() mutable {
         reply(std::move(response));
       }});
}

void MasterServer::Crash() {
  ROCKSTEADY_DCHECK(!sim_->in_event());
  if (on_crash) {
    on_crash();
  }
  crashed_ = true;
  cores_->Halt();
  rpc().net()->SetNodeDown(node(), true);
  coordinator_->SetServerUp(id_, false);
}

void MasterServer::Restart() {
  ROCKSTEADY_DCHECK(!sim_->in_event());
  if (!crashed_) {
    return;
  }
  // A restarted process comes back with an empty DRAM log and hash table:
  // whatever it owned has been (or is being) re-homed by recovery, so it
  // rejoins as a fresh, tablet-less member and must not serve stale data to
  // clients with stale tablet maps. Its BackupService frames model disk and
  // survive, so other masters' logs are still recoverable from here.
  const std::vector<Tablet> owned = objects_.tablets().tablets();
  for (const auto& tablet : owned) {
    objects_.DropTabletEntries(tablet.table_id, tablet.start_hash, tablet.end_hash);
    objects_.tablets().Remove(tablet.table_id, tablet.start_hash, tablet.end_hash);
  }
  crashed_ = false;
  cores_->Restart();
  rpc().net()->SetNodeDown(node(), false);
  coordinator_->SetServerUp(id_, true);
  // Re-sync the drain flag from the coordinator's quorum-replicated
  // lifecycle table: a master that crashed mid-drain rejoins still refusing
  // new tablet assignments, so the drain converges instead of resetting.
  draining_ = coordinator_->lifecycle(id_) == ServerLifecycle::kDraining;
}

}  // namespace rocksteady
