#include "src/migration/rocksteady_source.h"

#include <memory>

#include "src/common/annotations.h"
#include "src/common/audit.h"
#include "src/common/logging.h"

namespace rocksteady {

namespace {

void HandlePrepareMigration(MasterServer* master, RpcContext context) {
  // Handler state rides in the closures themselves: the work closure holds a
  // request reference and a raw response pointer, the done closure owns the
  // response and the reply — no shared context, no response copy.
  auto response = std::make_unique<PrepareMigrationResponse>();
  PrepareMigrationResponse* resp = response.get();
  IntrusivePtr<RpcRequest> request_ref = std::move(context.request);
  master->cores().EnqueueWorker(
      {Priority::kClient,
       [master, request_ref, resp] {
         PrepareMigrationResponse* response = resp;
         auto& req = static_cast<PrepareMigrationRequest&>(*request_ref);
         Tablet* tablet = master->objects().tablets().Find(req.table, req.start_hash);
         if (tablet == nullptr || tablet->start_hash != req.start_hash ||
             tablet->end_hash != req.end_hash) {
           response->status = Status::kTableNotFound;
           return Tick{500};
         }
         if (req.freeze) {
           // Immediate ownership transfer: from this instant the source
           // serves each migrating record at most once more (via pulls).
           // Legal transitions into kMigrationSource come only from kNormal
           // (or a repeated freeze of the same migration).
           ROCKSTEADY_DCHECK(tablet->state == TabletState::kNormal ||
                             tablet->state == TabletState::kMigrationSource);
           tablet->state = TabletState::kMigrationSource;
         }
         response->version_horizon = master->objects().version_horizon();
         response->num_hash_buckets = master->objects().hash_table().num_buckets();
         return Tick{1'000};
       },
       [reply = std::move(context.reply), response = std::move(response)]() mutable {
         reply(std::move(response));
       }});
}

void HandlePull(MasterServer* master, RpcContext context) {
  // Admission control: past the migration-queue bound, reject at dispatch
  // with kRetryLater and a retry hint — the target's pacing controller backs
  // off instead of the pull piling onto an already-saturated source. The
  // load header still goes out so the target sees *why*.
  if (master->cores().QueueFull(Priority::kMigration)) {
    master->CountMigrationPullReject();
    auto rejected = std::make_unique<PullResponse>();
    rejected->status = Status::kRetryLater;
    rejected->retry_after = master->sim().now() + master->costs().overload_retry_hint_ns;
    master->FillLoadHeader(&rejected->load);
    context.reply(std::move(rejected));
    return;
  }
  auto response = std::make_unique<PullResponse>();
  PullResponse* resp = response.get();
  IntrusivePtr<RpcRequest> request_ref = std::move(context.request);
  master->cores().EnqueueWorker(
      {Priority::kMigration,  // §4.1: "Pulls were configured to have the
                              // lowest priority in the system."
       [master, request_ref, resp] {
         PullResponse* response = resp;
         auto& req = static_cast<PullRequest&>(*request_ref);
         ObjectManager::PullBatch pulled = master->objects().PullRange(
             req.table, req.start_hash, req.end_hash, req.min_version,
             static_cast<size_t>(req.cursor), static_cast<size_t>(req.bucket_end),
             req.budget_bytes);
         // Frozen from here on: the dedup cache's clone shares these bytes.
         response->records = std::move(pulled.records);
         response->record_count = static_cast<uint32_t>(pulled.record_count);
         response->next_cursor = pulled.next_cursor;
         response->done = pulled.done;
         return master->costs().PullCost(pulled.record_count, response->records.size());
       },
       [master, reply = std::move(context.reply), response = std::move(response)]() mutable {
         // Piggyback the source-load signals the pacing controller reads —
         // sampled at reply time, as before, so pacing sees live queue state.
         master->FillLoadHeader(&response->load);
         reply(std::move(response));
       }});
}

void HandlePriorityPull(MasterServer* master, RpcContext context) {
  auto response = std::make_unique<PriorityPullResponse>();
  PriorityPullResponse* resp = response.get();
  IntrusivePtr<RpcRequest> request_ref = std::move(context.request);
  master->cores().EnqueueWorker(
      {Priority::kPriorityPull,  // §4.1: highest priority in the system —
                                 // the target is servicing its own client.
       [master, request_ref, resp] {
         PriorityPullResponse* response = resp;
         auto& req = static_cast<PriorityPullRequest&>(*request_ref);
         const HashTable& table = master->objects().hash_table();
         const Log& log = master->objects().log();
         ByteSliceBuilder out;
         for (size_t i = 0; i < req.hashes.size(); i++) {
           if (i + 1 < req.hashes.size()) {
             table.PrefetchBucket(req.hashes[i + 1]);
           }
           const KeyHash hash = req.hashes[i];
           const LogRef ref = table.Lookup(hash);
           LogEntryView entry;
           if (!ref.valid() || !log.Read(ref, &entry) || entry.table_id() != req.table ||
               entry.type() != LogEntryType::kObject) {
             // Authoritatively absent: the migrating tablet is immutable.
             response->not_found.push_back(hash);
             continue;
           }
           out.Append(entry.raw, entry.header.TotalLength());
           response->record_count++;
         }
         const size_t bytes = out.size();
         response->records = out.Finish();  // Frozen: clones share it.
         return master->costs().PriorityPullCost(req.hashes.size()) +
                static_cast<Tick>(master->costs().pull_per_byte_ns * static_cast<double>(bytes));
       },
       [master, reply = std::move(context.reply), response = std::move(response)]() mutable {
         master->FillLoadHeader(&response->load);
         reply(std::move(response));
       }});
}

void HandleReleaseTablet(MasterServer* master, RpcContext context) {
  IntrusivePtr<RpcRequest> request_ref = std::move(context.request);
  master->cores().EnqueueWorker(
      {Priority::kMigration,
       [master, request_ref] {
         auto& req = static_cast<ReleaseTabletRequest&>(*request_ref);
         master->objects().tablets().Remove(req.table, req.start_hash, req.end_hash);
         const size_t dropped =
             master->objects().DropTabletEntries(req.table, req.start_hash, req.end_hash);
         // Phase boundary: the source's copy is gone; what remains must
         // still be a consistent store (no dangling refs, no stray tablet).
         DebugAudit(master->objects(), "source ObjectManager after ReleaseTablet");
         // Dropping hash-table entries is cheap; the log space is reclaimed
         // by the cleaner over time.
         return Tick{1'000} + 50 * static_cast<Tick>(dropped) / 100;
       },
       [reply = std::move(context.reply)]() mutable {
         reply(std::make_unique<StatusResponse>());
       }});
}

}  // namespace

void InstallRocksteadySourceHandlers(MasterServer* master) {
  master->endpoint().Register(Opcode::kPrepareMigration,
                              ROCKSTEADY_IDEMPOTENT("re-preparing an already-prepared migration "
                                                    "re-reports the same log head position")
                              [master](RpcContext c) {
    HandlePrepareMigration(master, std::move(c));
  });
  master->endpoint().Register(Opcode::kPull,
                              ROCKSTEADY_IDEMPOTENT("pure read of the frozen source snapshot")
                              [master](RpcContext c) { HandlePull(master, std::move(c)); });
  master->endpoint().Register(
      Opcode::kPriorityPull,
      ROCKSTEADY_IDEMPOTENT("pure read of the frozen source snapshot")
      [master](RpcContext c) { HandlePriorityPull(master, std::move(c)); });
  master->endpoint().Register(
      Opcode::kReleaseTablet,
      ROCKSTEADY_IDEMPOTENT("dropping already-dropped tablet entries is a no-op")
      [master](RpcContext c) { HandleReleaseTablet(master, std::move(c)); });
}

}  // namespace rocksteady
