#include "src/cluster/recovery.h"

#include <map>
#include <memory>
#include <span>

#include "src/cluster/master_server.h"
#include "src/common/dcheck.h"
#include "src/common/logging.h"

namespace rocksteady {

namespace {

// How many times a recovery master re-issues the re-replication of a
// replayed range before giving up. Each retry backs off by the recovering
// retry hint, so the window comfortably covers a backup's crash-restart gap
// (the common failure during a rolling restart).
constexpr int kReplayReplicationAttempts = 10;

// Bytes of `bytes` that parse as a clean entry sequence. Replica copies of
// the same segment can legitimately diverge past this point (a leg that
// failed mid-stream leaves a zero hole the backup padded around), so
// recovery ranks copies by how far they parse.
size_t ParseablePrefix(std::span<const uint8_t> bytes) {
  return WalkEntries(bytes, [](size_t, const LogEntryView&) { return true; });
}

// Replicates the log range one replay task appended until the backups ack
// it (bounded retries): the recovery master's DRAM is the records' only home
// until this lands, so a silent failure here turns the *next* crash into
// data loss. Detached from the plan's completion: the recovery master's
// backup set may include the crashed master itself, whose legs cannot
// succeed until it restarts — which, in a rolling restart, only happens
// after this recovery reports done.
void ReplicateDurably(MasterServer* rm, std::vector<ReplicaChunk> range, int attempts_left) {
  std::vector<ReplicaChunk> attempt = range;
  rm->ReplicateChunks(
      std::move(attempt), Priority::kReplication, /*bulk=*/true,
      [rm, range = std::move(range), attempts_left](Status status) mutable {
        if (status == Status::kOk || attempts_left <= 1 || rm->crashed()) {
          if (status != Status::kOk) {
            LOG_WARNING("recovery: re-replication of replayed range gave up (status %d)",
                        static_cast<int>(status));
          }
          return;
        }
        rm->sim().After(rm->costs().recovering_retry_hint_ns,
                        [rm, range = std::move(range), attempts_left]() mutable {
                          if (!rm->crashed()) {
                            ReplicateDurably(rm, std::move(range), attempts_left - 1);
                          }
                        });
      });
}

// Shared state of one kRecover request on its recovery master.
struct RecoveryJob {
  MasterServer* rm = nullptr;
  std::vector<RecoverRange> ranges;
  size_t sources_left = 0;
  RpcContext context;

  // Replays the entries of `bytes` that fall in a recovered range, skipping
  // those below `skip_below`; returns the modeled replay cost. `appended`
  // receives the main-log range the replay wrote, for re-replication.
  Tick Replay(std::span<const uint8_t> bytes, size_t skip_below,
              std::vector<ReplicaChunk>* appended) {
    const Log& log = rm->objects().log();
    const LogPosition begin = log.HeadPosition();
    const ObjectManager::ReplayTally replayed = rm->objects().ReplayRecords(
        bytes, nullptr, [&](size_t offset, const LogEntryView& entry) {
          if (offset < skip_below || (entry.type() != LogEntryType::kObject &&
                                      entry.type() != LogEntryType::kTombstone)) {
            return false;
          }
          for (const auto& range : ranges) {
            if (entry.table_id() == range.table && entry.key_hash() >= range.start_hash &&
                entry.key_hash() <= range.end_hash) {
              return true;
            }
          }
          return false;
        });
    *appended = ReplicaManager::SliceRange(log.segments(), begin, log.HeadPosition(),
                                           /*seal=*/false);
    return rm->costs().ReplayCost(replayed.records, replayed.bytes);
  }

  void SourceDone() {
    if (--sources_left > 0) {
      return;
    }
    // Every source replayed: open the ranges for clients (a range may have
    // been split while it recovered, so walk every local tablet in it).
    for (const auto& range : ranges) {
      KeyHash cursor = range.start_hash;
      while (Tablet* tablet = rm->objects().tablets().Find(range.table, cursor)) {
        if (tablet->state == TabletState::kRecovering) {
          tablet->state = TabletState::kNormal;
        }
        if (tablet->end_hash >= range.end_hash) {
          break;
        }
        cursor = tablet->end_hash + 1;
      }
    }
    context.reply(std::make_unique<StatusResponse>());
  }
};

// Replays `bytes` as one worker task, at replication priority: recovery
// competes with normal service like other background work. When the task
// completes, the main-log range it appended gets fresh replicas and `then`
// runs.
void EnqueueReplay(const std::shared_ptr<RecoveryJob>& job, ByteSlice bytes, size_t skip_below,
                   std::function<void()> then) {
  auto appended = std::make_shared<std::vector<ReplicaChunk>>();
  job->rm->cores().EnqueueWorker(
      {Priority::kReplication,
       [job, bytes = std::move(bytes), skip_below, appended] {
         return job->Replay(bytes, skip_below, appended.get());
       },
       [job, appended, then = std::move(then)] {
         ReplicateDurably(job->rm, std::move(*appended), kReplayReplicationAttempts);
         then();
       }});
}

// Fetches `source`'s segments from every backup, keeps the copy of each
// segment that parses furthest, then replays them one worker task each.
void FetchAndReplay(const std::shared_ptr<RecoveryJob>& job, const RecoverSource& source,
                    const std::vector<NodeId>& backups) {
  struct Fetch {
    std::map<uint32_t, ByteSlice> segments;  // Deduped by id.
    size_t outstanding = 0;
  };
  auto fetch = std::make_shared<Fetch>();
  const uint32_t min_segment = source.min_segment;
  const uint32_t min_offset = source.min_offset;
  auto replay_all = [job, fetch, min_segment, min_offset] {
    if (fetch->segments.empty()) {
      job->SourceDone();
      return;
    }
    auto remaining = std::make_shared<size_t>(fetch->segments.size());
    for (auto& [segment_id, data] : fetch->segments) {
      const size_t skip_below = segment_id == min_segment ? min_offset : 0;
      EnqueueReplay(job, std::move(data), skip_below, [job, remaining] {
        if (--*remaining == 0) {
          job->SourceDone();
        }
      });
    }
  };
  if (backups.empty()) {
    job->SourceDone();
    return;
  }
  fetch->outstanding = backups.size();
  MasterServer* rm = job->rm;
  for (const NodeId backup : backups) {
    auto request = std::make_unique<GetRecoveryDataRequest>();
    request->crashed_master = source.data_of;
    request->min_segment_id = source.min_segment;
    rm->rpc().Call(
        rm->node(), backup, std::move(request),
        [fetch, replay_all](Status status, std::unique_ptr<RpcResponse> response) {
          if (status == Status::kOk && response != nullptr) {
            auto& data = static_cast<GetRecoveryDataResponse&>(*response);
            for (auto& segment : data.segments) {
              // Replica copies of the same segment can diverge: a leg that
              // failed mid-stream leaves a zero hole that truncates replay
              // at that offset. Keep whichever copy parses furthest, not
              // whichever response happened to arrive first.
              auto it = fetch->segments.find(segment.segment_id);
              if (it == fetch->segments.end()) {
                fetch->segments.emplace(segment.segment_id, std::move(segment.data));
              } else if (ParseablePrefix(segment.data) > ParseablePrefix(it->second)) {
                it->second = std::move(segment.data);
              }
            }
          }
          if (--fetch->outstanding == 0) {
            replay_all();
          }
        },
        rm->costs().migration_rpc_timeout_ns);
  }
}

}  // namespace

void RunRecovery(MasterServer* rm, RpcContext context) {
  auto& request = context.As<RecoverRequest>();
  // Install every range in kRecovering first: a write accepted mid-replay
  // would take a version the replayed entries silently clobber. A range the
  // recovery master still holds (a migration source taking its tablet back)
  // flips in place.
  for (const auto& range : request.ranges) {
    if (Tablet* tablet = rm->objects().tablets().Find(range.table, range.start_hash)) {
      tablet->state = TabletState::kRecovering;
    } else {
      rm->objects().tablets().Add(
          Tablet{range.table, range.start_hash, range.end_hash, TabletState::kRecovering});
    }
  }
  auto job = std::make_shared<RecoveryJob>();
  job->rm = rm;
  job->ranges = request.ranges;
  job->sources_left = request.sources.size() + 1;  // +1: released below.
  job->context = std::move(context);  // `request` stays alive with it.
  for (auto& source : request.sources) {
    if (!source.inline_tail) {
      FetchAndReplay(job, source, request.backups);
      continue;
    }
    // A live target's log tail: every entry is already in range and past
    // the dependency offset. Its only other durable home was the
    // (now-dropped) target lineage, so replay re-replicates it too.
    EnqueueReplay(job, std::move(source.tail), 0, [job] { job->SourceDone(); });
  }
  job->SourceDone();
}

ByteSlice CollectLogTail(MasterServer* master, TableId table, KeyHash start_hash,
                         KeyHash end_hash, uint32_t min_segment, uint32_t min_offset) {
  // Every write the target could ever ack is appended to its log before the
  // ack, so the log (not its backups, which may trail an in-flight
  // replication) is the complete set. Entries the cleaner relocated from
  // below the dependency offset may reappear above it; the replaying
  // master's version comparison drops those as already-known.
  ByteSliceBuilder tail;
  const Log& log = master->objects().log();
  log.ForEachEntry([&](LogRef ref, const LogEntryView& entry) {
    if (ref.segment_id() < min_segment ||
        (ref.segment_id() == min_segment && ref.offset() < min_offset)) {
      return;
    }
    if (entry.type() != LogEntryType::kObject && entry.type() != LogEntryType::kTombstone) {
      return;
    }
    if (entry.table_id() != table || entry.key_hash() < start_hash ||
        entry.key_hash() > end_hash) {
      return;
    }
    tail.Append(entry.raw, entry.header.TotalLength());
  });
  return tail.Finish();
}

// A recovery master replies once it has replayed everything, so the call's
// deadline bounds fetch plus replay: the control-plane RPC timeout, several
// times what a recovery of this model's tables takes.
void RecoveryManager::SendPlan(Plan plan, std::function<void()> done) {
  auto request = std::make_unique<RecoverRequest>();
  request->ranges = std::move(plan.ranges);
  request->sources = std::move(plan.sources);
  for (const ServerId backup : coordinator_->AliveServers(plan.recovery_master)) {
    request->backups.push_back(coordinator_->NodeOf(backup));
  }
  coordinator_->rpc().Call(
      coordinator_->node(), coordinator_->NodeOf(plan.recovery_master), std::move(request),
      [rm = plan.recovery_master, done = std::move(done)](Status status,
                                                          std::unique_ptr<RpcResponse>) {
        if (status != Status::kOk) {
          // The recovery master died mid-plan (its own recovery now owns
          // the ranges it took over) or overran the deadline.
          LOG_WARNING("recovery: recovery master %u did not finish (status %d)", rm,
                      static_cast<int>(status));
        }
        done();
      },
      coordinator_->rpc().costs()->migration_rpc_timeout_ns);
}

void RecoveryManager::TakeTargetTail(
    const MigrationDependency& dependency, bool keep_if_committed,
    std::function<void(bool committed, RecoverSource tail)> on_tail) {
  RecoverSource source{dependency.target, dependency.target_log_segment,
                       dependency.target_log_offset, false, {}};
  if (!coordinator_->up(dependency.target)) {
    on_tail(false, std::move(source));  // Down: its backups hold the tail.
    return;
  }
  auto request = std::make_unique<AbortInboundMigrationRequest>();
  request->table = dependency.table;
  request->start_hash = dependency.start_hash;
  request->end_hash = dependency.end_hash;
  request->min_segment = dependency.target_log_segment;
  request->min_offset = dependency.target_log_offset;
  request->keep_if_committed = keep_if_committed;
  coordinator_->rpc().Call(
      coordinator_->node(), coordinator_->NodeOf(dependency.target), std::move(request),
      [source = std::move(source), on_tail = std::move(on_tail)](
          Status status, std::unique_ptr<RpcResponse> response) mutable {
        if (status == Status::kOk && response != nullptr) {
          auto& aborted = static_cast<AbortInboundMigrationResponse&>(*response);
          if (aborted.committed) {
            on_tail(true, std::move(source));
            return;
          }
          source.inline_tail = true;
          source.tail = std::move(aborted.tail);
        }
        // No answer: the target went down meanwhile, so its backups hold
        // every write it acked.
        on_tail(false, std::move(source));
      },
      coordinator_->rpc().costs()->migration_rpc_timeout_ns);
}

void RecoveryManager::RecoverServer(ServerId crashed, std::function<void()> done) {
  const std::vector<ServerId> alive = coordinator_->AliveServers(crashed);
  if (alive.empty()) {
    LOG_ERROR("recovery: no alive servers to recover %u onto", crashed);
    if (done) {
      done();
    }
    return;
  }
  // Re-home onto placement-eligible (kActive) servers only — recovering a
  // draining master's data back onto another draining master would undo its
  // evacuation. If the whole cluster is draining there is no better choice,
  // so fall back to anyone alive.
  std::vector<ServerId> homes = coordinator_->PlacementCandidates(crashed);
  if (homes.empty()) {
    homes = alive;
  }

  // Finish when every plan's recovery master has replied.
  struct Barrier {
    size_t remaining = 1;  // Released once every plan is out.
    std::function<void()> done;
    void Arrive() {
      if (--remaining == 0 && done) {
        done();
      }
    }
  };
  auto barrier = std::make_shared<Barrier>();
  barrier->done = std::move(done);
  auto send = [this, barrier](Plan plan) {
    barrier->remaining++;
    SendPlan(std::move(plan), [barrier] { barrier->Arrive(); });
  };

  // A draining master may run several concurrent evacuations, so a crashed
  // server can appear in any number of dependency edges — snapshot them all
  // (the per-edge handling below drops each from the registry as it goes).
  std::vector<MigrationDependency> as_target;
  std::vector<MigrationDependency> as_source;
  for (const auto& d : coordinator_->dependencies()) {
    if (d.target == crashed) {
      as_target.push_back(d);
    } else if (d.source == crashed) {
      as_source.push_back(d);
    }
  }

  // --- Lineage case 1: the crashed server was a migration target. ---
  for (const auto& dep : as_target) {
    // Ownership returns to the source, whose copy is complete and immutable;
    // it only needs the target's log tail (writes serviced post-transfer).
    // The dependency's exact range must still be in the map: splits refuse
    // ranges that overlap an in-flight migration.
    const Status ownership_back =
        coordinator_->UpdateOwnership(dep.table, dep.start_hash, dep.end_hash, dep.source);
    ROCKSTEADY_DCHECK(ownership_back == Status::kOk);
    coordinator_->DropDependency(dep.source, dep.target, dep.table);
    send(Plan{dep.source,
              {{dep.table, dep.start_hash, dep.end_hash}},
              {{crashed, dep.target_log_segment, dep.target_log_offset, false, {}}}});
  }

  // --- Lineage case 2: the crashed server was a migration source. ---
  size_t next_lineage_home = 0;
  for (const auto& dep : as_source) {
    // The tablet (owned by the target since migration start) is rebuilt on a
    // recovery master from the source's backups plus the target's log tail,
    // which the target hands back as it aborts its inbound migration.
    const ServerId rm = homes[next_lineage_home++ % homes.size()];
    const Status ownership_to_rm =
        coordinator_->UpdateOwnership(dep.table, dep.start_hash, dep.end_hash, rm);
    ROCKSTEADY_DCHECK(ownership_to_rm == Status::kOk);
    coordinator_->DropDependency(dep.source, dep.target, dep.table);
    barrier->remaining++;
    TakeTargetTail(dep, /*keep_if_committed=*/false,
                   [send, barrier, rm, dep](bool, RecoverSource tail) {
                     send(Plan{rm,
                               {{dep.table, dep.start_hash, dep.end_hash}},
                               {{dep.source, 0, 0, false, {}}, std::move(tail)}});
                     barrier->Arrive();
                   });
  }

  // --- Generic: re-home every tablet still owned by the crashed server. ---
  std::map<ServerId, Plan> generic;
  size_t next_rm = 0;
  // Copy: UpdateOwnership below edits the map.
  const std::vector<Coordinator::OwnedTablet> tablets = coordinator_->GetAllTablets();
  for (const auto& entry : tablets) {
    if (entry.owner != crashed) {
      continue;
    }
    const ServerId rm = homes[next_rm++ % homes.size()];
    // The entry's range comes straight from the map, so the exact-range
    // repoint cannot miss.
    const Status ownership_spread =
        coordinator_->UpdateOwnership(entry.table, entry.start_hash, entry.end_hash, rm);
    ROCKSTEADY_DCHECK(ownership_spread == Status::kOk);
    Plan& plan = generic[rm];
    plan.recovery_master = rm;
    plan.ranges.push_back({entry.table, entry.start_hash, entry.end_hash});
  }
  for (auto& [rm, plan] : generic) {
    plan.sources.push_back({crashed, 0, 0, false, {}});
    send(std::move(plan));
  }
  barrier->Arrive();
}

void RecoveryManager::AbortMigrationToSource(const MigrationDependency& dependency,
                                             bool keep_if_committed,
                                             std::function<void(bool committed)> done) {
  if (!done) {
    done = [](bool) {};
  }
  TakeTargetTail(dependency, keep_if_committed,
                 [this, dependency, done = std::move(done)](bool committed, RecoverSource tail) {
    if (committed) {
      // The migration committed but its DropDependency never landed: the
      // row is stale metadata, not a wedge.
      coordinator_->CommitDependency(dependency.source, dependency.target, dependency.table);
      done(true);
      return;
    }
    if (!coordinator_->DropDependency(dependency.source, dependency.target, dependency.table)) {
      // Crash recovery took the edge over meanwhile and replays the tail.
      done(false);
      return;
    }
    // The target has let go of the range (or is down); hand it back to the
    // source, whose copy is complete and immutable, plus the target's tail.
    const Status ownership_to_source = coordinator_->UpdateOwnership(
        dependency.table, dependency.start_hash, dependency.end_hash, dependency.source);
    ROCKSTEADY_DCHECK(ownership_to_source == Status::kOk);
    SendPlan(Plan{dependency.source,
                  {{dependency.table, dependency.start_hash, dependency.end_hash}},
                  {std::move(tail)}},
             [done] { done(false); });
  });
}

}  // namespace rocksteady
