// Target-side Rocksteady migration manager (§3.1.2, §3.1.3, §3.4).
//
// Runs as asynchronous continuations on the target's dispatch core. It
// partitions the source's key-hash space, keeps one pipelined Pull
// outstanding per partition (flow-controlled by replay backlog), replays
// completed Pulls on idle workers at the lowest priority into per-partition
// side logs, and at the end lazily re-replicates + commits the side logs and
// drops the lineage dependency.
//
// Modes (the evaluation's comparisons):
//  * kRocksteady          — full protocol (Figures 9-11a).
//  * kNoPriorityPulls     — ownership transfers but misses only resolve via
//                           background Pulls (Figures 9-11b).
//  * kSourceOwns          — pre-copy: source keeps ownership and keeps
//                           serving; rounds of pulls with synchronous
//                           re-replication, then freeze + delta + switch
//                           (Figures 9-11c).
//  * sync_priority_pulls  — naive synchronous PriorityPulls (Figures 13-14).
#ifndef ROCKSTEADY_SRC_MIGRATION_ROCKSTEADY_TARGET_H_
#define ROCKSTEADY_SRC_MIGRATION_ROCKSTEADY_TARGET_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/master_server.h"
#include "src/migration/priority_pull_manager.h"

namespace rocksteady {

enum class MigrationMode {
  kRocksteady,
  kNoPriorityPulls,
  kSourceOwns,
};

struct RocksteadyOptions {
  MigrationMode mode = MigrationMode::kRocksteady;
  // §4.1: "partition the source's key hash space into 8 parts, with each
  // Pull returning 20 KB of data."
  size_t num_partitions = 8;
  uint32_t pull_budget_bytes = 20 * 1024;
  size_t priority_pull_batch = 16;
  // Figures 13-14: hold a worker per missed read instead of batching.
  bool sync_priority_pulls = false;
  // Figures 13-14 also disable background Pulls entirely.
  bool background_pulls = true;
  // Ablation: replicate replayed data synchronously during migration even
  // in ownership-transfer mode (§4.2 reports lazy is 1.4x faster).
  bool lazy_rereplication = true;
  // Max un-replayed pull responses per partition before pulls pause (the
  // "built-in flow control", §3.1.2).
  size_t max_replay_backlog = 2;

  // --- Adaptive pull pacing (AIMD over the source-load header). ---
  // The target reads the signals the source piggybacks on pull replies.
  // When any signal crosses its threshold (or a pull is shed outright), the
  // pacing window (concurrent pulls) and per-pull byte budget shrink
  // multiplicatively; every healthy reply grows them back additively toward
  // full aggressiveness. An unloaded source never trips a threshold, so
  // pacing leaves a quiet migration's schedule untouched.
  // The thresholds and step sizes are constants in rocksteady_target.cc.
  bool adaptive_pacing = true;
};

struct MigrationStats {
  Tick start_time = 0;
  Tick end_time = 0;
  uint64_t bytes_pulled = 0;
  uint64_t records_pulled = 0;
  uint64_t pulls_completed = 0;
  uint64_t priority_pull_batches = 0;
  uint64_t priority_pull_records = 0;
  uint64_t rereplicated_bytes = 0;
  uint64_t rounds = 0;  // Pre-copy mode: pull rounds (1 + deltas).
  // Overload / memory-pressure bookkeeping.
  uint64_t pacing_backoffs = 0;          // AIMD multiplicative decreases.
  uint64_t pull_rejections = 0;          // Pulls shed by source admission control.
  uint64_t memory_pauses = 0;            // High-watermark pull pauses.
  uint64_t emergency_clean_segments = 0; // Segments reclaimed while paused.
  bool aborted_over_budget = false;      // Tablet did not fit the budget.
  // When the last Pull completed (before end-of-migration replication /
  // commit); isolates transfer speed from the lazy-replication epilogue.
  Tick last_pull_time = 0;

  double DurationSeconds() const {
    return static_cast<double>(end_time - start_time) / static_cast<double>(kSecond);
  }
  // Effective migration rate over moved record bytes.
  double RateMBps() const {
    const double seconds = DurationSeconds();
    return seconds <= 0 ? 0 : static_cast<double>(bytes_pulled) / 1e6 / seconds;
  }
};

class RocksteadyMigrationManager : public MasterServer::MigrationHooks {
 public:
  RocksteadyMigrationManager(MasterServer* target, TableId table, KeyHash start_hash,
                             KeyHash end_hash, ServerId source, RocksteadyOptions options,
                             std::function<void(const MigrationStats&)> done);
  ~RocksteadyMigrationManager() override;

  void Start();

  // Source crashed: drop all partial state (side logs + hash-table refs);
  // recovery re-homes the tablet.
  void Abort();

  const MigrationStats& stats() const { return stats_; }
  bool finished() const { return finished_; }
  bool aborted() const { return aborted_; }

  // Coarse progress marker for tests that inject a fault at a specific
  // point in the protocol (e.g. "source crash after ownership transfer,
  // before re-replication completes").
  enum class Phase { kStarting, kPulling, kReplicating, kDone, kAborted };
  Phase phase() const { return phase_; }

  // Invariants: partitions are ordered and disjoint with each pull cursor
  // inside its partition's bucket range (the pulled-hash-bucket frontier
  // only moves forward), replay backlogs within the flow-control bound, and
  // side-log data invisible before commit (empty after commit/abort).
  void AuditInvariants(AuditReport* report) const;

  // Bytes-moved timeline (optional; drives Figure 9-11 rate curves).
  void set_bytes_timeline(CounterTimeline* timeline) { bytes_timeline_ = timeline; }

  // --- MasterServer::MigrationHooks ---
  Tick OnMissingRecord(TableId table, KeyHash hash) override;
  bool IsKnownAbsent(TableId table, KeyHash hash) override;
  bool ServiceReadSynchronously(TableId table, KeyHash hash, RpcContext* context) override;

 private:
  struct Partition {
    uint64_t bucket_begin = 0;
    uint64_t bucket_end = 0;
    uint64_t cursor = 0;
    bool pull_in_flight = false;
    bool source_exhausted = false;
    size_t replay_backlog = 0;  // Completed pulls not yet replayed.
    int pull_retries = 0;       // Consecutive failed pulls (reset on success).

    bool Done() const { return source_exhausted && !pull_in_flight && replay_backlog == 0; }
  };

  // A failed Pull is re-driven this many times (each attempt already
  // retransmits inside the transport) before the partition stalls and the
  // coordinator's recovery / lease watchdog decides the migration's fate.
  static constexpr int kMaxPullRetries = 16;

  // A control-plane RPC (Prepare, dependency registration, ownership,
  // drop/release) is re-issued this many times across crash-restart windows.
  static constexpr int kMaxControlAttempts = 10;

  // Emergency-clean passes in a row with no net memory reduction before the
  // manager concludes the tablet cannot fit the budget and aborts.
  static constexpr int kMaxFutileCleans = 4;

  // Runs `fn` as a migration-manager continuation on the dispatch core.
  void ManagerTick(std::function<void()> fn);

  // Issues a control-plane RPC with bounded re-drive: the transport's
  // at-least-once machinery retransmits within each attempt, and the whole
  // (idempotent) call is re-issued with backoff across attempts. `cb` gets
  // the first delivered response, or the last failure once the attempt
  // budget is spent. The request is rebuilt per attempt via `make_request`.
  void ControlCall(NodeId to, std::function<std::unique_ptr<RpcRequest>()> make_request,
                   std::function<void(Status, std::unique_ptr<RpcResponse>)> cb, int attempt);

  // Renews the coordinator's migration lease every
  // migration_heartbeat_interval_ns until the migration finishes or aborts.
  void HeartbeatLoop();

  void OnPrepared(const PrepareMigrationResponse& response);
  void SetUpPartitions(uint64_t num_buckets);
  void StartRound(Version min_version);
  void PumpPulls();
  void IssuePull(size_t partition_index);
  void OnPullResponse(size_t partition_index, std::unique_ptr<PullResponse> response);
  void OnRoundComplete();
  void FinishLazyReplication();
  void CommitAndComplete();

  // --- Adaptive pacing (AIMD). ---
  size_t InFlightPulls() const;
  // Feeds one source-load observation into the controller. `rejected` marks
  // a pull shed by the source's admission control (always a backoff).
  void OnLoadSignal(const SourceLoadHeader& load, bool rejected);

  // --- Memory budget. ---
  // True if pulls must not proceed: the high watermark was crossed and the
  // manager entered the pause/emergency-clean loop.
  bool CheckMemoryBudget();
  void EnterMemoryPause();
  // One emergency-cleaner pass as a migration-priority worker task; `then`
  // receives the number of segments it cleaned.
  void EnqueueEmergencyClean(std::function<void(size_t cleaned)> then);
  void ScheduleEmergencyClean();
  void OnEmergencyCleanDone();
  // The tablet cannot fit even after cleaning: graceful abort along the
  // §3.4 lineage paths via the coordinator (source keeps ownership, our
  // durable log tail is replayed there — no acked write lost).
  void AbortOverBudget();
  // Post-commit sweep: committing adopts the side-log segments into the
  // main log, which makes their fragmented tails cleanable for the first
  // time; keeps emergency-cleaning one segment at a time until the target
  // is back under its budget (or cleaning stops making progress).
  void DrainToBudget();

  MasterServer* target_;
  TableId table_;
  KeyHash start_hash_;
  KeyHash end_hash_;
  ServerId source_;
  NodeId source_node_ = 0;
  RocksteadyOptions options_;
  std::function<void(const MigrationStats&)> done_;
  MigrationStats stats_;
  CounterTimeline* bytes_timeline_ = nullptr;

  std::vector<Partition> partitions_;
  std::vector<std::unique_ptr<SideLog>> side_logs_;  // One per partition (+1 for PP).
  std::unique_ptr<PriorityPullManager> priority_pulls_;
  Version round_min_version_ = 0;   // Pre-copy delta filter for this round.
  Version round_start_horizon_ = 0;
  bool frozen_ = false;  // Pre-copy: source has been frozen.
  bool finished_ = false;
  bool aborted_ = false;
  Phase phase_ = Phase::kStarting;

  // Adaptive-pacing state (set up with the partitions; at full
  // aggressiveness these reproduce the unpaced schedule exactly).
  size_t pacing_window_ = 0;    // Max concurrent pulls.
  uint32_t pacing_budget_ = 0;  // Current per-pull byte budget.
  size_t next_partition_ = 0;   // Round-robin fairness under a small window.

  // Memory-budget state.
  bool memory_paused_ = false;
  bool abort_requested_ = false;
  int futile_cleans_ = 0;
  uint64_t pause_min_in_use_ = 0;  // Lowest in-use seen this pause (progress test).
};

// Installs kMigrateTablet, kAbortInboundMigration and all source-side
// handlers on `master`, and aborts its inbound migrations when it crashes.
// Any server can then act as source or target.
void InstallRocksteadyHandlers(MasterServer* master);

// Installs Rocksteady (and the baseline migration) on every master of a
// cluster.
void EnableMigration(Cluster* cluster);

// Convenience driver used by experiments and tests: splits the tablet at
// `split_hash`, then asks `target` to migrate [split_hash, end_hash]. The
// manager lives until completion; `done` receives final stats.
RocksteadyMigrationManager* StartRocksteadyMigration(
    Cluster* cluster, TableId table, KeyHash start_hash, KeyHash end_hash, size_t source_index,
    size_t target_index, const RocksteadyOptions& options,
    std::function<void(const MigrationStats&)> done);

}  // namespace rocksteady

#endif  // ROCKSTEADY_SRC_MIGRATION_ROCKSTEADY_TARGET_H_
