#include "src/migration/ramcloud_migration.h"

#include <deque>

#include "src/common/annotations.h"
#include "src/common/dcheck.h"
#include "src/common/logging.h"
#include "src/migration/migration_state.h"

namespace rocksteady {

namespace {

void ReplayNextBatch(MasterServer* master);

// Target-side baseline replay is strictly serialized (RAMCloud's original
// migration replays single-threaded, no matter how many workers exist).
void HandleBaselineReplay(MasterServer* master, RpcContext context) {
  auto* state = GetServerMigrationState(master);
  state->baseline_queue.push_back(std::move(context));
  ReplayNextBatch(master);
}

void ReplayNextBatch(MasterServer* master) {
  auto* state = GetServerMigrationState(master);
  if (state->baseline_replay_busy || state->baseline_queue.empty()) {
    return;
  }
  state->baseline_replay_busy = true;
  // The request and the main-log bytes its replay appended.
  struct Batch {
    RpcContext context;
    std::vector<ReplicaChunk> appended;
  };
  auto batch = std::make_shared<Batch>(std::move(state->baseline_queue.front()));
  state->baseline_queue.pop_front();
  auto& request = batch->context.As<BaselineReplayRequest>();
  const bool skip_replay = request.skip_replay;
  const bool skip_rerepl = request.skip_rereplication;

  auto finish = [master, state, batch] {
    batch->context.reply(std::make_unique<StatusResponse>());
    state->baseline_replay_busy = false;
    ReplayNextBatch(master);
  };

  master->cores().EnqueueWorker(
      {Priority::kMigration,
       [master, batch, skip_replay] {
         auto& req = batch->context.As<BaselineReplayRequest>();
         if (req.install_tablet) {
           master->objects().tablets().Add(
               Tablet{req.table, req.start_hash, req.end_hash, TabletState::kNormal});
         }
         if (req.last_batch) {
           // Ownership arrives with the data: continue versions above the
           // source's and start serving.
           master->objects().RaiseVersionHorizon(req.version_horizon);
         }
         if (skip_replay) {
           return Tick{500};
         }
         const Log& log = master->objects().log();
         const LogPosition begin = log.HeadPosition();
         master->objects().ReplayRecords(req.records, nullptr);  // Main log, like recovery.
         batch->appended =
             ReplicaManager::SliceRange(log.segments(), begin, log.HeadPosition(), /*seal=*/false);
         return static_cast<Tick>(master->costs().baseline_replay_per_byte_ns *
                                  static_cast<double>(req.records.size()));
       },
       [master, batch, skip_rerepl, finish] {
         if (skip_rerepl) {
           finish();
           return;
         }
         // Synchronous re-replication: the batch is not acked (and the
         // source's pipeline not advanced) until backups confirm the log
         // bytes its replay appended.
         master->ReplicateChunks(std::move(batch->appended), Priority::kReplication,
                                 /*bulk=*/false, [finish](Status) { finish(); });
       }});
}

}  // namespace

BaselineMigration::BaselineMigration(MasterServer* source, TableId table, KeyHash start_hash,
                                     KeyHash end_hash, ServerId target,
                                     BaselineMigrateOptions options,
                                     std::function<void(const BaselineStats&)> done)
    : source_(source),
      table_(table),
      start_hash_(start_hash),
      end_hash_(end_hash),
      target_(target),
      options_(options),
      done_(std::move(done)) {
  target_node_ = source_->coordinator().NodeOf(target_);
}

void BaselineMigration::Start() {
  stats_.start_time = source_->sim().now();
  if (Tablet* tablet = source_->objects().tablets().Find(table_, start_hash_)) {
    tablet->state = TabletState::kBaselineSourceBusy;
  }
  ScheduleScanChunk();
}

void BaselineMigration::ScheduleScanChunk() {
  if (scan_task_active_ || completed_ || scan_done_) {
    return;
  }
  if (outstanding_batches_ >= kMaxOutstanding) {
    return;  // Backpressure from the target's serialized replay.
  }
  scan_task_active_ = true;

  auto batch = std::make_shared<ByteSliceBuilder>();
  auto batch_records = std::make_shared<uint32_t>(0);
  auto matched_bytes = std::make_shared<size_t>(0);
  auto reached_end = std::make_shared<bool>(false);

  source_->cores().EnqueueWorker(
      {Priority::kMigration,
       [this, batch, batch_records, matched_bytes, reached_end] {
         const Log& log = source_->objects().log();
         const HashTable& table = source_->objects().hash_table();
         size_t scanned = 0;
         size_t skipped_entries = 0;
         while (scanned < kMaxScanPerTask && *matched_bytes < kBatchBudget) {
           const auto& segments = log.segments();
           if (segment_index_ >= segments.size()) {
             *reached_end = true;
             break;
           }
           const Segment& segment = *segments[segment_index_];
           if (segment_offset_ >= segment.used()) {
             segment_index_++;
             segment_offset_ = 0;
             continue;
           }
           LogEntryView entry;
           if (!segment.EntryAt(segment_offset_, &entry)) {
             segment_index_++;
             segment_offset_ = 0;
             continue;
           }
           const size_t length = entry.header.TotalLength();
           scanned += length;
           const LogRef ref(segment.id(), static_cast<uint32_t>(segment_offset_));
           segment_offset_ += length;
           if (entry.type() != LogEntryType::kObject || entry.table_id() != table_ ||
               entry.key_hash() < start_hash_ || entry.key_hash() > end_hash_ ||
               !(table.Lookup(entry.key_hash()) == ref)) {
             skipped_entries++;  // Other tablet's record or a dead copy.
             continue;
           }
           *matched_bytes += length;
           if (!options_.skip_copy) {
             // Copy into the staging buffer (the cost Figure 5 isolates).
             batch->Append(entry.raw, length);
           }
           *batch_records += 1;
         }
         stats_.bytes_scanned += scanned;
         double cost =
             source_->costs().baseline_scan_per_byte_ns * static_cast<double>(*matched_bytes) +
             static_cast<double>(source_->costs().baseline_scan_per_skipped_entry_ns) *
                 static_cast<double>(skipped_entries);
         if (!options_.skip_copy) {
           cost += source_->costs().baseline_copy_per_byte_ns *
                   static_cast<double>(batch->size());
           if (!options_.skip_tx) {
             cost += source_->costs().baseline_tx_per_byte_ns *
                     static_cast<double>(batch->size());
           }
         }
         return static_cast<Tick>(cost) + 1'000;
       },
       [this, batch, batch_records, matched_bytes, reached_end] {
         scan_task_active_ = false;
         const size_t moved_bytes = *matched_bytes;
         stats_.bytes_transferred += moved_bytes;
         stats_.records_transferred += *batch_records;
         if (bytes_timeline_ != nullptr && moved_bytes > 0) {
           bytes_timeline_->Add(source_->sim().now(), moved_bytes);
         }

         if (*reached_end && !frozen_) {
           // Caught up with the head: freeze writes and do the final pass
           // over anything appended meanwhile.
           frozen_ = true;
           if (Tablet* tablet = source_->objects().tablets().Find(table_, start_hash_)) {
             tablet->state = TabletState::kMigrationSource;
           }
           ScheduleScanChunk();
         }
         const bool last = *reached_end && frozen_;
         if (last) {
           scan_done_ = true;
         }

         if (!options_.skip_tx && !options_.skip_copy && (!batch->empty() || last)) {
           auto request = std::make_unique<BaselineReplayRequest>();
           request->table = table_;
           request->records = batch->Finish();
           request->record_count = *batch_records;
           request->last_batch = last;
           request->skip_replay = options_.skip_replay;
           request->skip_rereplication = options_.skip_rereplication;
           if (last) {
             request->version_horizon = source_->objects().version_horizon();
           }
           outstanding_batches_++;
           source_->rpc().Call(source_->node(), target_node_, std::move(request),
                               [this](Status, std::unique_ptr<RpcResponse>) {
                                 outstanding_batches_--;
                                 ScheduleScanChunk();
                                 FinishIfDone();
                               },
                               /*timeout=*/0);
         }
         if (!scan_done_) {
           ScheduleScanChunk();
         }
         FinishIfDone();
       }});
}

void BaselineMigration::FinishIfDone() {
  if (completed_ || !scan_done_ || outstanding_batches_ > 0) {
    return;
  }
  Complete();
}

void BaselineMigration::Complete() {
  completed_ = true;
  // Only now does ownership move (§2.3: "Only after all of the records have
  // been transferred is tablet ownership switched"): the target installs the
  // tablet (behind every replayed batch), then the coordinator repoints.
  auto install = std::make_unique<BaselineReplayRequest>();
  install->table = table_;
  install->install_tablet = true;
  install->start_hash = start_hash_;
  install->end_hash = end_hash_;
  source_->rpc().Call(source_->node(), target_node_, std::move(install),
                      [this](Status, std::unique_ptr<RpcResponse>) { SwitchOwnership(); },
                      /*timeout=*/0);
}

void BaselineMigration::SwitchOwnership() {
  auto own = std::make_unique<UpdateOwnershipRequest>();
  own->table = table_;
  own->start_hash = start_hash_;
  own->end_hash = end_hash_;
  own->new_owner = target_;
  source_->rpc().Call(source_->node(), source_->coordinator().node(), std::move(own),
                      [this](Status, std::unique_ptr<RpcResponse>) {
                        source_->objects().tablets().Remove(table_, start_hash_, end_hash_);
                        source_->objects().DropTabletEntries(table_, start_hash_, end_hash_);
                        stats_.end_time = source_->sim().now();
                        LOG_INFO("baseline migration done: %.1f MB in %.2f s (%.0f MB/s)",
                                 static_cast<double>(stats_.bytes_transferred) / 1e6,
                                 stats_.DurationSeconds(), stats_.RateMBps());
                        if (done_) {
                          done_(stats_);
                        }
                      });
}

void InstallBaselineMigrationHandlers(MasterServer* master) {
  master->endpoint().Register(Opcode::kBaselineMigrate,
                              ROCKSTEADY_IDEMPOTENT("migration control is re-drivable: baseline "
                                                    "copy restarts overwrite with identical "
                                                    "versioned objects")
                              [master](RpcContext context) {
    auto& request = context.As<BaselineMigrateRequest>();
    auto* state = GetServerMigrationState(master);
    auto migration = std::make_shared<BaselineMigration>(
        master, request.table, request.start_hash, request.end_hash, request.target,
        request.options, nullptr);
    BaselineMigration* raw = migration.get();
    state->owned.push_back(std::move(migration));
    raw->Start();
    context.reply(std::make_unique<StatusResponse>());
  });
  master->endpoint().Register(Opcode::kBaselineReplay,
                              ROCKSTEADY_IDEMPOTENT("replaying a batch re-applies versioned "
                                                    "entries; version checks reject stale "
                                                    "duplicates")
                              [master](RpcContext context) {
    HandleBaselineReplay(master, std::move(context));
  });
}

BaselineMigration* StartBaselineMigration(Cluster* cluster, TableId table, KeyHash start_hash,
                                          KeyHash end_hash, size_t source_index,
                                          size_t target_index,
                                          const BaselineMigrateOptions& options,
                                          std::function<void(const BaselineStats&)> done) {
  // Pre-migration splits: the table exists and splits at an existing
  // boundary are no-ops, so anything but kOk is a driver bug.
  const Status split_low = cluster->coordinator().SplitTablet(table, start_hash);
  ROCKSTEADY_DCHECK(split_low == Status::kOk);
  if (end_hash != ~0ull) {
    const Status split_high = cluster->coordinator().SplitTablet(table, end_hash + 1);
    ROCKSTEADY_DCHECK(split_high == Status::kOk);
  }
  MasterServer& source = cluster->master(source_index);
  auto* state = GetServerMigrationState(&source);
  auto migration = std::make_shared<BaselineMigration>(
      &source, table, start_hash, end_hash, cluster->master(target_index).id(), options,
      std::move(done));
  BaselineMigration* raw = migration.get();
  state->owned.push_back(std::move(migration));
  raw->Start();
  return raw;
}

}  // namespace rocksteady
