#include "src/migration/rocksteady_target.h"

#include <algorithm>
#include <cassert>

#include <bit>

#include "src/cluster/recovery.h"
#include "src/common/annotations.h"
#include "src/common/audit.h"
#include "src/common/logging.h"
#include "src/migration/migration_state.h"
#include "src/migration/ramcloud_migration.h"
#include "src/migration/rocksteady_source.h"

namespace rocksteady {

namespace {

// Adaptive pull pacing (RocksteadyOptions::adaptive_pacing): a source-load
// signal at or past any threshold halves the pacing window and per-pull
// budget (never below kMinPullBudgetBytes); a healthy reply grows the
// budget back by kPullBudgetIncrementBytes.
constexpr Tick kPacingP999ThresholdNs = 200'000;
constexpr uint32_t kPacingQueueThreshold = 16;
constexpr Tick kPacingBacklogThresholdNs = 50'000;
constexpr uint32_t kMinPullBudgetBytes = 4 * 1024;
constexpr uint32_t kPullBudgetIncrementBytes = 2 * 1024;

// Adds a manager to the server's migration state and returns a raw handle.
RocksteadyMigrationManager* ParkManager(MasterServer* master,
                                        std::shared_ptr<RocksteadyMigrationManager> manager) {
  auto* state = GetServerMigrationState(master);
  state->inbound.push_back(manager.get());
  state->owned.push_back(std::move(manager));
  return state->inbound.back();
}

// Aborts every unfinished inbound migration on `master`.
void AbortInbound(MasterServer* master) {
  for (auto* manager : GetServerMigrationState(master)->inbound) {
    if (!manager->finished()) {
      manager->Abort();
    }
  }
}

}  // namespace

RocksteadyMigrationManager::RocksteadyMigrationManager(
    MasterServer* target, TableId table, KeyHash start_hash, KeyHash end_hash, ServerId source,
    RocksteadyOptions options, std::function<void(const MigrationStats&)> done)
    : target_(target),
      table_(table),
      start_hash_(start_hash),
      end_hash_(end_hash),
      source_(source),
      options_(std::move(options)),
      done_(std::move(done)) {
  source_node_ = target_->coordinator().NodeOf(source_);
}

RocksteadyMigrationManager::~RocksteadyMigrationManager() = default;

void RocksteadyMigrationManager::ManagerTick(std::function<void()> fn) {
  // §3.1.2: the migration manager runs as an asynchronous continuation on
  // the target's dispatch core; §4.3: it "requires little CPU".
  target_->cores().EnqueueDispatch(target_->costs().dispatch_manager_ns, std::move(fn));
}

void RocksteadyMigrationManager::ControlCall(
    NodeId to, std::function<std::unique_ptr<RpcRequest>()> make_request,
    std::function<void(Status, std::unique_ptr<RpcResponse>)> cb, int attempt) {
  // Build the request before the Call: the callback lambda below moves
  // make_request, and argument evaluation order is unspecified.
  std::unique_ptr<RpcRequest> request = make_request();
  target_->rpc().Call(
      target_->node(), to, std::move(request),
      [this, to, make_request = std::move(make_request), cb = std::move(cb), attempt](
          Status status, std::unique_ptr<RpcResponse> response) mutable {
        if (aborted_ || target_->crashed()) {
          return;
        }
        if (status == Status::kOk || attempt >= kMaxControlAttempts) {
          cb(status, std::move(response));
          return;
        }
        // The peer may be mid-crash-restart; re-issue after a backoff. The
        // server side dedups, so a late duplicate cannot double-apply.
        const Tick backoff = std::min<Tick>(target_->costs().retry_backoff_min_ns << attempt,
                                            target_->costs().wrong_server_backoff_max_ns) +
                             target_->rng().Uniform(target_->costs().retry_backoff_min_ns);
        target_->sim().After(backoff, target_->node(),
                             [this, to, make_request = std::move(make_request), cb = std::move(cb),
                              attempt]() mutable {
          if (aborted_ || target_->crashed()) {
            return;
          }
          ControlCall(to, std::move(make_request), std::move(cb), attempt + 1);
        });
      },
      target_->costs().migration_rpc_timeout_ns);
}

void RocksteadyMigrationManager::HeartbeatLoop() {
  // Once a budget abort has been requested, stop renewing the lease: if the
  // coordinator is unreachable the lease watchdog becomes the abort path of
  // last resort, and keeping the lease alive would wedge the migration.
  if (finished_ || aborted_ || abort_requested_ || target_->crashed()) {
    return;
  }
  auto heartbeat = std::make_unique<MigrationHeartbeatRequest>();
  heartbeat->source = source_;
  heartbeat->target = target_->id();
  heartbeat->table = table_;
  // Lease renewals double as a piggyback channel: mid-migration, the
  // target's load telemetry reaches the coordinator at heartbeat cadence
  // (faster than the ping sweep), so the planner sees a migration target's
  // load freshly while it matters most.
  if (target_->piggyback_provider) {
    heartbeat->piggyback = target_->piggyback_provider();
  }
  target_->rpc().Call(target_->node(), target_->coordinator().node(), std::move(heartbeat),
                      [](Status, std::unique_ptr<RpcResponse>) {},
                      target_->costs().rpc_timeout_ns);
  target_->sim().After(target_->costs().migration_heartbeat_interval_ns, target_->node(),
                       [this] { HeartbeatLoop(); });
}

void RocksteadyMigrationManager::Start() {
  stats_.start_time = target_->sim().now();
  if (target_->draining()) {
    // A draining master only sheds tablets. Refusing here (not just at the
    // kMigrateTablet handler) also covers direct manager construction and
    // closes the race where the operator drains while a migration request
    // is in flight. Nothing global changed yet; the migration never starts.
    LOG_INFO("migration: target %u is draining; refusing inbound migration", target_->id());
    finished_ = true;
    phase_ = Phase::kDone;
    stats_.end_time = target_->sim().now();
    if (done_) {
      auto done = std::move(done_);
      done_ = nullptr;
      target_->sim().After(0, target_->node(),
                           [done = std::move(done), stats = stats_] { done(stats); });
    }
    return;
  }
  auto make_prepare = [this]() -> std::unique_ptr<RpcRequest> {
    auto prepare = std::make_unique<PrepareMigrationRequest>();
    prepare->table = table_;
    prepare->start_hash = start_hash_;
    prepare->end_hash = end_hash_;
    prepare->target = target_->id();
    prepare->freeze = options_.mode != MigrationMode::kSourceOwns;
    return prepare;
  };
  ControlCall(
      source_node_, std::move(make_prepare),
      [this](Status status, std::unique_ptr<RpcResponse> response) {
        if (status != Status::kOk || response->status != Status::kOk) {
          // The re-drive budget is spent, or the source authoritatively no
          // longer holds the tablet (recovery re-homed it while we were
          // asking). Nothing global changed yet, so the migration just
          // never starts.
          LOG_ERROR("migration: PrepareMigration failed (%d)", static_cast<int>(status));
          finished_ = true;
          phase_ = Phase::kDone;
          stats_.end_time = target_->sim().now();
          if (done_) {
            done_(stats_);
          }
          return;
        }
        OnPrepared(static_cast<PrepareMigrationResponse&>(*response));
      },
      /*attempt=*/1);
}

void RocksteadyMigrationManager::OnPrepared(const PrepareMigrationResponse& response) {
  SetUpPartitions(response.num_hash_buckets);
  round_start_horizon_ = response.version_horizon;
  // Phase boundary: partitions laid out, nothing pulled yet.
  DebugAudit(*this, "migration manager after prepare");

  if (options_.mode == MigrationMode::kSourceOwns) {
    // Pre-copy comparison: no ownership transfer, no lineage; replayed data
    // is synchronously re-replicated. Just start pulling rounds.
    StartRound(0);
    return;
  }

  // Immediate ownership transfer. Seed the version horizon so local writes
  // always beat replayed source records (any-order replay safety).
  target_->objects().RaiseVersionHorizon(response.version_horizon);
  target_->objects().tablets().Add(
      Tablet{table_, start_hash_, end_hash_, TabletState::kMigrationTarget});
  PriorityPullManager::Options pp_options;
  pp_options.max_batch = options_.priority_pull_batch;
  pp_options.enabled = options_.mode == MigrationMode::kRocksteady;
  priority_pulls_ =
      std::make_unique<PriorityPullManager>(target_, source_node_, table_, pp_options);
  priority_pulls_->set_side_log(side_logs_.back().get());
  target_->set_migration_hooks(this);

  // §3.4: register the source's dependency on our log tail at the
  // coordinator, together with the ownership change (one contact). Both
  // RPCs are idempotent at the coordinator, so they re-drive through a
  // coordinator crash-restart window.
  const auto head = target_->objects().log().HeadPosition();
  auto make_register = [this, head]() -> std::unique_ptr<RpcRequest> {
    auto reg = std::make_unique<RegisterDependencyRequest>();
    reg->source = source_;
    reg->target = target_->id();
    reg->table = table_;
    reg->start_hash = start_hash_;
    reg->end_hash = end_hash_;
    reg->target_log_segment = head.first;
    reg->target_log_offset = head.second;
    return reg;
  };
  ControlCall(
      target_->coordinator().node(), std::move(make_register),
      [this](Status status, std::unique_ptr<RpcResponse>) {
        if (status != Status::kOk) {
          // Coordinator unreachable beyond the re-drive budget: unwind the
          // local ownership state rather than serve a range the coordinator
          // never learned we own.
          Abort();
          return;
        }
        HeartbeatLoop();
        auto make_own = [this]() -> std::unique_ptr<RpcRequest> {
          auto own = std::make_unique<UpdateOwnershipRequest>();
          own->table = table_;
          own->start_hash = start_hash_;
          own->end_hash = end_hash_;
          own->new_owner = target_->id();
          return own;
        };
        ControlCall(target_->coordinator().node(), std::move(make_own),
                    [this](Status status, std::unique_ptr<RpcResponse>) {
                      if (status != Status::kOk) {
                        // Dependency registered but ownership never moved;
                        // the lease watchdog will clear the stale row.
                        Abort();
                        return;
                      }
                      StartRound(0);
                    },
                    /*attempt=*/1);
      },
      /*attempt=*/1);
}

void RocksteadyMigrationManager::SetUpPartitions(uint64_t num_buckets) {
  // Map the migrating hash range onto the source's bucket space; §3.1.1:
  // concurrent Pulls work on disjoint bucket regions. num_buckets = 2^k.
  const int log2 = std::countr_zero(num_buckets);
  const uint64_t first_bucket = start_hash_ >> (64 - log2);
  const uint64_t last_bucket = end_hash_ >> (64 - log2);
  const uint64_t begin = first_bucket;
  const uint64_t end = last_bucket + 1;
  partitions_.clear();
  side_logs_.clear();
  const uint64_t span = end - begin;
  const size_t parts = std::min<size_t>(options_.num_partitions, span);
  for (size_t i = 0; i < parts; i++) {
    Partition partition;
    partition.bucket_begin = begin + span * i / parts;
    partition.bucket_end = begin + span * (i + 1) / parts;
    partition.cursor = partition.bucket_begin;
    partitions_.push_back(partition);
    side_logs_.push_back(std::make_unique<SideLog>(&target_->objects().log()));
  }
  // One extra side log for PriorityPull replay.
  side_logs_.push_back(std::make_unique<SideLog>(&target_->objects().log()));
  // Pacing starts at full aggressiveness (window = every partition, full
  // byte budget): with no overload signal the schedule is identical to the
  // unpaced protocol, which is what makes adaptive pacing safe to default on.
  pacing_window_ = partitions_.size();
  pacing_budget_ = options_.pull_budget_bytes;
  next_partition_ = 0;
}

void RocksteadyMigrationManager::StartRound(Version min_version) {
  phase_ = Phase::kPulling;
  round_min_version_ = min_version;
  stats_.rounds++;
  for (auto& partition : partitions_) {
    partition.cursor = partition.bucket_begin;
    partition.source_exhausted = false;
    partition.pull_retries = 0;
  }
  PumpPulls();
}

void RocksteadyMigrationManager::PumpPulls() {
  if (aborted_ || abort_requested_ || !options_.background_pulls) {
    return;
  }
  if (memory_paused_) {
    return;  // The emergency-clean loop re-pumps once below the low watermark.
  }
  if (CheckMemoryBudget()) {
    return;  // Just entered the pause.
  }
  // Issue pulls round-robin from a rotating cursor so a shrunken pacing
  // window still serves every partition fairly instead of starving the
  // high-numbered ones.
  //
  // Under a memory budget, additionally cap concurrency by the headroom
  // left below the high watermark: each in-flight pull can allocate at most
  // one fresh side-log segment, so never keeping more pulls outstanding
  // than whole segments of headroom bounds the overshoot past the
  // watermark to roughly one segment.
  size_t window = pacing_window_;
  const uint64_t budget = target_->config().memory_budget_bytes;
  if (budget != 0) {
    const uint64_t high = static_cast<uint64_t>(
        static_cast<double>(budget) * target_->config().memory_high_watermark);
    const uint64_t in_use = target_->memory_in_use();
    const uint64_t headroom = high > in_use ? high - in_use : 0;
    window = std::min<size_t>(
        window,
        std::max<size_t>(1, headroom / target_->objects().log().segment_size()));
  }
  const size_t n = partitions_.size();
  const size_t base = next_partition_;
  size_t in_flight = InFlightPulls();
  for (size_t step = 0; step < n && in_flight < window; step++) {
    const size_t i = (base + step) % n;
    Partition& partition = partitions_[i];
    if (!partition.pull_in_flight && !partition.source_exhausted &&
        partition.replay_backlog < options_.max_replay_backlog) {
      IssuePull(i);
      in_flight++;
      next_partition_ = (i + 1) % n;
    }
  }
}

size_t RocksteadyMigrationManager::InFlightPulls() const {
  size_t count = 0;
  for (const auto& partition : partitions_) {
    count += partition.pull_in_flight ? 1 : 0;
  }
  return count;
}

void RocksteadyMigrationManager::OnLoadSignal(const SourceLoadHeader& load, bool rejected) {
  if (!options_.adaptive_pacing || partitions_.empty()) {
    return;
  }
  const bool overloaded =
      rejected || (load.valid &&
                   (load.client_queue_depth >= kPacingQueueThreshold ||
                    load.dispatch_backlog_ns >= kPacingBacklogThresholdNs ||
                    load.recent_p999_ns >= kPacingP999ThresholdNs));
  if (overloaded) {
    // Multiplicative decrease: halve concurrency and per-pull bytes.
    pacing_window_ = std::max<size_t>(1, pacing_window_ / 2);
    pacing_budget_ = std::max(kMinPullBudgetBytes, pacing_budget_ / 2);
    stats_.pacing_backoffs++;
  } else {
    // Additive increase back toward full aggressiveness.
    if (pacing_window_ < partitions_.size()) {
      pacing_window_++;
    }
    pacing_budget_ = std::min(options_.pull_budget_bytes,
                              pacing_budget_ + kPullBudgetIncrementBytes);
  }
}

void RocksteadyMigrationManager::IssuePull(size_t partition_index) {
  Partition& partition = partitions_[partition_index];
  partition.pull_in_flight = true;
  ManagerTick([this, partition_index] {
    if (aborted_) {
      return;
    }
    Partition& partition = partitions_[partition_index];
    auto request = std::make_unique<PullRequest>();
    request->table = table_;
    request->start_hash = start_hash_;
    request->end_hash = end_hash_;
    request->bucket_begin = partition.bucket_begin;
    request->bucket_end = partition.bucket_end;
    request->cursor = partition.cursor;
    request->budget_bytes = pacing_budget_;
    request->min_version = round_min_version_;
    target_->rpc().Call(
        target_->node(), source_node_, std::move(request),
        [this, partition_index](Status status, std::unique_ptr<RpcResponse> response) {
          if (aborted_ || target_->crashed()) {
            return;
          }
          if (status != Status::kOk) {
            // Source unreachable. Re-drive a bounded number of times — a
            // brief outage or a lost response must not strand the
            // partition — then stall and let the coordinator's recovery or
            // lease watchdog decide the migration's fate.
            Partition& partition = partitions_[partition_index];
            partition.pull_in_flight = false;
            if (++partition.pull_retries <= kMaxPullRetries) {
              target_->sim().After(target_->costs().recovering_retry_hint_ns, target_->node(),
                                   [this, partition_index] {
                                     if (aborted_ || target_->crashed()) {
                                       return;
                                     }
                                     Partition& retry = partitions_[partition_index];
                                     if (!retry.pull_in_flight && !retry.source_exhausted) {
                                       IssuePull(partition_index);
                                     }
                                   });
            }
            return;
          }
          partitions_[partition_index].pull_retries = 0;
          OnPullResponse(partition_index,
                         std::unique_ptr<PullResponse>(
                             static_cast<PullResponse*>(response.release())));
        },
        target_->costs().migration_rpc_timeout_ns);
  });
}

void RocksteadyMigrationManager::OnPullResponse(size_t partition_index,
                                                std::unique_ptr<PullResponse> response) {
  Partition& partition = partitions_[partition_index];
  partition.pull_in_flight = false;
  if (response->status == Status::kRetryLater) {
    // The source's admission control shed this pull at dispatch: the cursor
    // did not move and no bytes came back. Treat it as the strongest
    // congestion signal, then retry at the source's hint plus seeded jitter
    // (through PumpPulls, so the shrunken window decides who goes first).
    stats_.pull_rejections++;
    OnLoadSignal(response->load, /*rejected=*/true);
    const Tick resume_at = std::max(response->retry_after, target_->sim().now());
    const Tick jitter = target_->rng().Uniform(target_->costs().retry_backoff_min_ns);
    target_->sim().At(resume_at + jitter, target_->node(), [this] {
      if (aborted_ || target_->crashed()) {
        return;
      }
      PumpPulls();
    });
    return;
  }
  if (response->status != Status::kOk) {
    // The source delivered an error (e.g. it lost the tablet to recovery
    // mid-pull). Bounded re-drive, same as a transport failure.
    if (++partition.pull_retries <= kMaxPullRetries) {
      target_->sim().After(target_->costs().recovering_retry_hint_ns, target_->node(),
                           [this, partition_index] {
        if (aborted_ || target_->crashed()) {
          return;
        }
        Partition& retry = partitions_[partition_index];
        if (!retry.pull_in_flight && !retry.source_exhausted) {
          PumpPulls();
        }
      });
    }
    return;
  }
  OnLoadSignal(response->load, /*rejected=*/false);
  // §3.1.1: the frontier over the source's hash buckets is monotonic — a
  // Pull response can only advance this partition's cursor, never rewind it
  // (a rewind would re-migrate records and shadow newer versions).
  ROCKSTEADY_DCHECK_GE(response->next_cursor, partition.cursor);
  ROCKSTEADY_DCHECK_LE(response->next_cursor, partition.bucket_end);
  partition.cursor = response->next_cursor;
  partition.source_exhausted = response->done;
  stats_.pulls_completed++;
  stats_.last_pull_time = target_->sim().now();
  stats_.bytes_pulled += response->records.size();
  stats_.records_pulled += response->record_count;
  if (bytes_timeline_ != nullptr) {
    bytes_timeline_->Add(target_->sim().now(), response->records.size());
  }

  const bool sync_rerepl =
      !options_.lazy_rereplication || options_.mode == MigrationMode::kSourceOwns;

  if (response->record_count > 0) {
    partition.replay_backlog++;
    // The pull reply and, under sync re-replication, the side-log bytes its
    // replay appended.
    struct Batch {
      PullResponse reply;
      std::vector<ReplicaChunk> appended;
    };
    auto batch = std::make_shared<Batch>(std::move(*response));
    // §3.1.2/§3.1.3: replay on any idle worker, lowest priority, into this
    // partition's side log (no contention with other replay workers).
    target_->cores().EnqueueWorker(
        {Priority::kMigration,
         [this, batch, partition_index, sync_rerepl] {
           SideLog* side_log = side_logs_[partition_index].get();
           const LogPosition begin = side_log->HeadPosition();
           const ByteSlice& records = batch->reply.records;
           const size_t replayed = target_->objects().ReplayRecords(records, side_log).records;
           if (sync_rerepl) {
             batch->appended = ReplicaManager::SliceRange(
                 side_log->segments(), begin, side_log->HeadPosition(), /*seal=*/false);
           }
           return target_->costs().ReplayCost(replayed, records.size());
         },
         [this, batch, partition_index, sync_rerepl] {
           auto replayed = [this, partition_index] {
             partitions_[partition_index].replay_backlog--;
             PumpPulls();
             OnRoundComplete();
           };
           if (!sync_rerepl) {
             replayed();
             return;
           }
           // Fig. 9c / ablation: the side-log bytes this replay appended are
           // replicated before this partition's next pull proceeds —
           // re-replication is on the migration fast path.
           for (const ReplicaChunk& chunk : batch->appended) {
             stats_.rereplicated_bytes += chunk.data.size();
           }
           target_->ReplicateChunks(std::move(batch->appended), Priority::kReplication,
                                    /*bulk=*/false, [this, replayed](Status) {
                                      if (!aborted_) {
                                        replayed();
                                      }
                                    });
         }});
  }
  PumpPulls();
  OnRoundComplete();
}

bool RocksteadyMigrationManager::CheckMemoryBudget() {
  const uint64_t budget = target_->config().memory_budget_bytes;
  if (budget == 0) {
    return false;
  }
  const uint64_t in_use = target_->memory_in_use();
  const auto high = static_cast<uint64_t>(target_->config().memory_high_watermark *
                                          static_cast<double>(budget));
  if (in_use < high) {
    return false;
  }
  EnterMemoryPause();
  return true;
}

void RocksteadyMigrationManager::EnterMemoryPause() {
  if (memory_paused_ || aborted_ || finished_) {
    return;
  }
  memory_paused_ = true;
  futile_cleans_ = 0;
  pause_min_in_use_ = target_->memory_in_use();
  stats_.memory_pauses++;
  LOG_INFO("migration: target %u over memory high watermark (%llu in use), pausing pulls",
           target_->id(), static_cast<unsigned long long>(pause_min_in_use_));
  ScheduleEmergencyClean();
}

void RocksteadyMigrationManager::EnqueueEmergencyClean(std::function<void(size_t)> then) {
  // Emergency cleaning runs as migration-priority worker work charged its
  // modeled cost, so it competes with replay for idle workers rather than
  // happening for free.
  auto cleaned = std::make_shared<size_t>(0);
  target_->cores().EnqueueWorker(
      {Priority::kMigration,
       [this, cleaned] {
         const uint64_t before = target_->objects().cleaner().bytes_relocated();
         *cleaned = target_->objects().RunEmergencyCleaner(1);
         const uint64_t relocated = target_->objects().cleaner().bytes_relocated() - before;
         return target_->costs().CleanSegmentCost(static_cast<size_t>(relocated));
       },
       [cleaned, then = std::move(then)] { then(*cleaned); }});
}

void RocksteadyMigrationManager::ScheduleEmergencyClean() {
  EnqueueEmergencyClean([this](size_t cleaned) {
    stats_.emergency_clean_segments += cleaned;
    OnEmergencyCleanDone();
  });
}

void RocksteadyMigrationManager::OnEmergencyCleanDone() {
  if (aborted_ || finished_ || abort_requested_ || target_->crashed()) {
    return;
  }
  const uint64_t budget = target_->config().memory_budget_bytes;
  const uint64_t in_use = target_->memory_in_use();
  const auto low = static_cast<uint64_t>(target_->config().memory_low_watermark *
                                         static_cast<double>(budget));
  if (in_use <= low) {
    memory_paused_ = false;
    LOG_INFO("migration: target %u back under low watermark (%llu in use), resuming pulls",
             target_->id(), static_cast<unsigned long long>(in_use));
    ManagerTick([this] { PumpPulls(); });
    return;
  }
  // Still over the low watermark. "Progress" means a new in-use minimum for
  // this pause — that covers both a pass that cleaned nothing and one that
  // cleaned a segment yet freed no net memory (e.g. relocations re-filled
  // the head as fast as victims were reclaimed).
  if (in_use < pause_min_in_use_) {
    pause_min_in_use_ = in_use;
    futile_cleans_ = 0;
  } else if (++futile_cleans_ >= kMaxFutileCleans) {
    AbortOverBudget();
    return;
  }
  ScheduleEmergencyClean();
}

void RocksteadyMigrationManager::DrainToBudget() {
  const uint64_t budget = target_->config().memory_budget_bytes;
  if (budget == 0 || target_->crashed() || target_->memory_in_use() <= budget) {
    return;
  }
  const uint64_t before_in_use = target_->memory_in_use();
  EnqueueEmergencyClean([this, before_in_use](size_t cleaned) {
    stats_.emergency_clean_segments += cleaned;
    // Recurse only while memory actually shrinks: a fully-packed log
    // relocates as many bytes as it frees, and looping on that would never
    // terminate.
    if (cleaned > 0 && target_->memory_in_use() < before_in_use) {
      DrainToBudget();
    }
  });
}

void RocksteadyMigrationManager::AbortOverBudget() {
  if (aborted_ || finished_ || abort_requested_) {
    return;
  }
  abort_requested_ = true;
  stats_.aborted_over_budget = true;
  LOG_INFO("migration: tablet does not fit target %u's memory budget, aborting to source",
           target_->id());
  if (options_.mode == MigrationMode::kSourceOwns) {
    // Pre-copy mode: the source never stopped owning or serving the tablet;
    // dropping our partial copy is the whole abort.
    Abort();
    return;
  }
  // Ownership-transfer mode: ask the coordinator to drive the §3.4 lineage
  // abort (ownership back to the source, our durable log tail replayed there
  // from backups — acked writes survive). On success the coordinator's abort
  // path re-enters this manager through a kAbortInboundMigration RPC. If
  // the coordinator stays unreachable past the re-drive budget, the stopped
  // heartbeats let the lease watchdog abort the migration instead.
  auto make_abort = [this]() -> std::unique_ptr<RpcRequest> {
    auto abort = std::make_unique<AbortMigrationRequest>();
    abort->source = source_;
    abort->target = target_->id();
    abort->table = table_;
    return abort;
  };
  ControlCall(target_->coordinator().node(), std::move(make_abort),
              [](Status, std::unique_ptr<RpcResponse>) {}, /*attempt=*/1);
}

void RocksteadyMigrationManager::AuditInvariants(AuditReport* report) const {
  if (!partitions_.empty() && (pacing_window_ < 1 || pacing_window_ > partitions_.size())) {
    report->Fail("migration: pacing window %zu outside [1, %zu]", pacing_window_,
                 partitions_.size());
  }
  for (size_t i = 0; i < partitions_.size(); i++) {
    const Partition& partition = partitions_[i];
    if (partition.bucket_begin > partition.bucket_end) {
      report->Fail("migration: partition %zu has inverted bucket range [%llu, %llu)", i,
                   static_cast<unsigned long long>(partition.bucket_begin),
                   static_cast<unsigned long long>(partition.bucket_end));
    }
    if (partition.cursor < partition.bucket_begin || partition.cursor > partition.bucket_end) {
      report->Fail("migration: partition %zu cursor %llu outside [%llu, %llu)", i,
                   static_cast<unsigned long long>(partition.cursor),
                   static_cast<unsigned long long>(partition.bucket_begin),
                   static_cast<unsigned long long>(partition.bucket_end));
    }
    if (partition.source_exhausted && partition.cursor < partition.bucket_end) {
      report->Fail("migration: partition %zu exhausted with cursor %llu short of %llu", i,
                   static_cast<unsigned long long>(partition.cursor),
                   static_cast<unsigned long long>(partition.bucket_end));
    }
    if (i + 1 < partitions_.size() &&
        partition.bucket_end > partitions_[i + 1].bucket_begin) {
      report->Fail("migration: partitions %zu and %zu overlap", i, i + 1);
    }
    if (partition.replay_backlog > options_.max_replay_backlog) {
      report->Fail("migration: partition %zu backlog %zu exceeds flow-control bound %zu", i,
                   partition.replay_backlog, options_.max_replay_backlog);
    }
  }
  for (const auto& side_log : side_logs_) {
    if (finished_ || aborted_) {
      // Post-commit/abort, all side-log data must have moved into the main
      // log (or been dropped); lingering pending data would be dark state.
      if (side_log->pending_entries() != 0) {
        report->Fail("migration: side log still holds %zu entries after completion",
                     side_log->pending_entries());
      }
    } else {
      side_log->AuditInvariants(report);
    }
  }
}

void RocksteadyMigrationManager::OnRoundComplete() {
  if (aborted_ || finished_) {
    return;
  }
  for (const auto& partition : partitions_) {
    if (!partition.Done()) {
      return;
    }
  }
  // Phase boundary: all pulls done, before replication/commit.
  DebugAudit(*this, "migration manager at round completion");
  // Wait for in-flight PriorityPulls to drain (their records are duplicates
  // by now, but keep the state machine tidy).
  if (priority_pulls_ != nullptr && !priority_pulls_->idle()) {
    target_->sim().After(10 * kMicrosecond, target_->node(), [this] { OnRoundComplete(); });
    return;
  }

  if (options_.mode == MigrationMode::kSourceOwns) {
    if (!frozen_) {
      // Round 1 done: freeze the source, then pull the delta (records
      // written during round 1 have version > round_start_horizon_).
      frozen_ = true;
      auto make_freeze = [this]() -> std::unique_ptr<RpcRequest> {
        auto prepare = std::make_unique<PrepareMigrationRequest>();
        prepare->table = table_;
        prepare->start_hash = start_hash_;
        prepare->end_hash = end_hash_;
        prepare->target = target_->id();
        prepare->freeze = true;
        return prepare;
      };
      ControlCall(
          source_node_, std::move(make_freeze),
          [this](Status status, std::unique_ptr<RpcResponse> response) {
            if (status != Status::kOk) {
              return;
            }
            const Version frozen_horizon =
                static_cast<PrepareMigrationResponse&>(*response).version_horizon;
            const Version delta_from = round_start_horizon_;
            round_start_horizon_ = frozen_horizon;
            StartRound(delta_from);
          },
          /*attempt=*/1);
      return;
    }
    // Delta round done: switch ownership and go live.
    target_->objects().RaiseVersionHorizon(round_start_horizon_);
    target_->objects().tablets().Add(
        Tablet{table_, start_hash_, end_hash_, TabletState::kNormal});
    auto make_own = [this]() -> std::unique_ptr<RpcRequest> {
      auto own = std::make_unique<UpdateOwnershipRequest>();
      own->table = table_;
      own->start_hash = start_hash_;
      own->end_hash = end_hash_;
      own->new_owner = target_->id();
      return own;
    };
    ControlCall(target_->coordinator().node(), std::move(make_own),
                [this](Status, std::unique_ptr<RpcResponse>) { CommitAndComplete(); },
                /*attempt=*/1);
    return;
  }

  FinishLazyReplication();
}

void RocksteadyMigrationManager::FinishLazyReplication() {
  if (finished_) {
    return;
  }
  finished_ = true;  // Guard against re-entry from late OnRoundComplete calls.
  phase_ = Phase::kReplicating;
  // §3.1.3 / §3.4: "At the end of migration, each side log's segments are
  // lazily replicated, and then the side log is committed into the main
  // log." The replication runs entirely in the background: bounded 64 KB
  // chunks at migration (lowest) priority, so foreground ops — and other
  // masters' foreground replication to this server's backup — never queue
  // behind it. Sync re-replication has already replicated every pull's
  // replay; the PriorityPull side log (the last one) is left.
  std::vector<ReplicaChunk> chunks;
  const size_t first = options_.lazy_rereplication ? 0 : partitions_.size();
  for (size_t i = first; i < side_logs_.size(); i++) {
    const SideLog& side_log = *side_logs_[i];
    std::vector<ReplicaChunk> log_chunks = ReplicaManager::SliceRange(
        side_log.segments(), {0, 0}, side_log.HeadPosition(), /*seal=*/true);
    for (ReplicaChunk& chunk : log_chunks) {
      stats_.rereplicated_bytes += chunk.data.size();
      chunks.push_back(std::move(chunk));
    }
  }
  target_->ReplicateChunks(std::move(chunks), Priority::kMigration, /*bulk=*/true,
                           [this](Status) { CommitAndComplete(); });
}

void RocksteadyMigrationManager::CommitAndComplete() {
  finished_ = true;
  phase_ = Phase::kDone;
  for (auto& side_log : side_logs_) {
    side_log->Commit();
  }
  if (priority_pulls_ != nullptr) {
    priority_pulls_->Shutdown();
    stats_.priority_pull_batches = priority_pulls_->batches_issued();
    stats_.priority_pull_records = priority_pulls_->records_pulled();
  }
  if (Tablet* tablet = target_->objects().tablets().Find(table_, start_hash_)) {
    tablet->state = TabletState::kNormal;
  }
  if (target_->migration_hooks() == this) {
    target_->set_migration_hooks(nullptr);
  }
  // Tell the coordinator the lineage dependency is gone... (re-driven; if
  // every attempt dies, the lease watchdog spots the committed migration
  // and drops the stale row itself).
  if (options_.mode != MigrationMode::kSourceOwns) {
    auto make_drop = [this]() -> std::unique_ptr<RpcRequest> {
      auto drop = std::make_unique<DropDependencyRequest>();
      drop->source = source_;
      drop->target = target_->id();
      drop->table = table_;
      return drop;
    };
    ControlCall(target_->coordinator().node(), std::move(make_drop),
                [](Status, std::unique_ptr<RpcResponse>) {}, /*attempt=*/1);
  }
  // ...and tell the source it can free its copy (idempotent at the source).
  auto make_release = [this]() -> std::unique_ptr<RpcRequest> {
    auto release = std::make_unique<ReleaseTabletRequest>();
    release->table = table_;
    release->start_hash = start_hash_;
    release->end_hash = end_hash_;
    return release;
  };
  ControlCall(source_node_, std::move(make_release),
              [](Status, std::unique_ptr<RpcResponse>) {}, /*attempt=*/1);

  stats_.end_time = target_->sim().now();
  // Phase boundary: migration complete. The tablet is normal, the side logs
  // are committed, and the whole target store must be consistent.
  DebugAudit(*this, "migration manager after commit");
  DebugAudit(target_->objects(), "target ObjectManager after commit");
  LOG_INFO("migration done: %.1f MB in %.2f s (%.0f MB/s), %llu pulls, %llu pp batches",
           static_cast<double>(stats_.bytes_pulled) / 1e6, stats_.DurationSeconds(),
           stats_.RateMBps(), static_cast<unsigned long long>(stats_.pulls_completed),
           static_cast<unsigned long long>(stats_.priority_pull_batches));
  if (done_) {
    done_(stats_);
  }
  // The adopted side segments' fragmented tails just became cleanable;
  // consolidate until the target is back under its budget.
  DrainToBudget();
}

void RocksteadyMigrationManager::Abort() {
  if (aborted_ || finished_) {
    return;
  }
  aborted_ = true;
  phase_ = Phase::kAborted;
  if (priority_pulls_ != nullptr) {
    priority_pulls_->Shutdown();
  }
  for (auto& side_log : side_logs_) {
    target_->objects().DropSideLogEntries(*side_log);
    side_log->Abort();
  }
  target_->objects().tablets().Remove(table_, start_hash_, end_hash_);
  if (target_->migration_hooks() == this) {
    target_->set_migration_hooks(nullptr);
  }
  // Phase boundary: after an abort no half-replayed state may survive — all
  // side-log refs dropped from the hash table, side segments deregistered.
  DebugAudit(*this, "migration manager after abort");
  DebugAudit(target_->objects(), "target ObjectManager after abort");
  LOG_INFO("migration aborted on target %u", target_->id());
}

Tick RocksteadyMigrationManager::OnMissingRecord(TableId table, KeyHash hash) {
  assert(table == table_);
  (void)table;
  return priority_pulls_->OnMissingRecord(hash);
}

bool RocksteadyMigrationManager::IsKnownAbsent(TableId table, KeyHash hash) {
  (void)table;
  return priority_pulls_ != nullptr && priority_pulls_->IsKnownAbsent(hash);
}

bool RocksteadyMigrationManager::ServiceReadSynchronously(TableId table, KeyHash hash,
                                                          RpcContext* context) {
  (void)table;
  if (!options_.sync_priority_pulls || priority_pulls_ == nullptr) {
    return false;
  }
  return priority_pulls_->ServiceSynchronously(hash, context);
}

void InstallRocksteadyHandlers(MasterServer* master) {
  InstallRocksteadySourceHandlers(master);
  master->endpoint().Register(Opcode::kMigrateTablet,
                              ROCKSTEADY_IDEMPOTENT("migration control is re-drivable: a second "
                                                    "MigrateTablet for an in-flight range joins "
                                                    "the existing manager instead of restarting")
                              [master](RpcContext context) {
    auto& request = context.As<MigrateTabletRequest>();
    if (master->draining()) {
      // A draining master only sheds tablets; refusing here (rather than at
      // the planner, which already never targets draining servers) closes
      // the race where an operator drains while a MigrateTablet is in
      // flight.
      auto response = std::make_unique<StatusResponse>();
      response->status = Status::kInvalidState;
      context.reply(std::move(response));
      return;
    }
    auto* manager = ParkManager(
        master, std::make_shared<RocksteadyMigrationManager>(
                    master, request.table, request.start_hash, request.end_hash, request.source,
                    RocksteadyOptions{}, nullptr));
    manager->Start();
    context.reply(std::make_unique<StatusResponse>());
  });
  // Coordinator -> target (§3.4 lineage paths: the source crashed, or the
  // migration stalled or ran over budget): drop the inbound migration and
  // the tablet, and hand back the log tail the source side must replay.
  master->endpoint().Register(Opcode::kAbortInboundMigration,
                              ROCKSTEADY_IDEMPOTENT("the migration is aborted and the tablet "
                                                    "dropped at most once; a re-run returns the "
                                                    "same log tail")
                              [master](RpcContext context) {
    auto& request = context.As<AbortInboundMigrationRequest>();
    auto response = std::make_unique<AbortInboundMigrationResponse>();
    const Tablet* tablet = master->objects().tablets().Find(request.table, request.start_hash);
    if (request.keep_if_committed && tablet != nullptr &&
        tablet->state == TabletState::kNormal && tablet->start_hash == request.start_hash &&
        tablet->end_hash == request.end_hash) {
      response->committed = true;  // Committed; only its DropDependency was lost.
      context.reply(std::move(response));
      return;
    }
    AbortInbound(master);
    // The manager's Abort() removes the tablet; make sure it is gone even
    // when none is installed (the registration landed but the target never
    // got the ack and never built one). This also stops new appends, so the
    // tail below is complete.
    master->objects().tablets().Remove(request.table, request.start_hash, request.end_hash);
    response->tail = CollectLogTail(master, request.table, request.start_hash, request.end_hash,
                                    request.min_segment, request.min_offset);
    context.reply(std::move(response));
  });
  // A crashed process loses its migrations: abort them before the halt, so
  // no continuation survives into a restart.
  master->on_crash = [master] { AbortInbound(master); };
}

void EnableMigration(Cluster* cluster) {
  for (size_t i = 0; i < cluster->num_masters(); i++) {
    InstallRocksteadyHandlers(&cluster->master(i));
    InstallBaselineMigrationHandlers(&cluster->master(i));
  }
}

RocksteadyMigrationManager* StartRocksteadyMigration(
    Cluster* cluster, TableId table, KeyHash start_hash, KeyHash end_hash, size_t source_index,
    size_t target_index, const RocksteadyOptions& options,
    std::function<void(const MigrationStats&)> done) {
  // The paper's client first splits the tablet, then issues MigrateTablet.
  // Splits at an existing boundary are no-ops, so kOk is the only legal
  // outcome here: the table exists and no migration overlaps it yet.
  const Status split_low = cluster->coordinator().SplitTablet(table, start_hash);
  ROCKSTEADY_DCHECK(split_low == Status::kOk);
  if (end_hash != ~0ull) {
    const Status split_high = cluster->coordinator().SplitTablet(table, end_hash + 1);
    ROCKSTEADY_DCHECK(split_high == Status::kOk);
  }
  MasterServer& target = cluster->master(target_index);
  auto* manager = ParkManager(
      &target, std::make_shared<RocksteadyMigrationManager>(
                   &target, table, start_hash, end_hash, cluster->master(source_index).id(),
                   options, std::move(done)));
  manager->Start();
  return manager;
}

}  // namespace rocksteady
