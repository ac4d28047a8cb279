// The coordinator-side rebalance planner.
//
// A deterministic policy loop that closes the telemetry -> decision ->
// Rocksteady-migration loop: it watches per-master load frames (piggybacked
// on ping replies and migration heartbeats), detects a sustained imbalance,
// optionally splits the hot tablet at a histogram-chosen boundary, and
// drives one Rocksteady migration at a time from the hottest master to the
// least-loaded eligible target.
//
// Policy properties:
//  * Every threshold is a named constant (the determinism lint enforces
//    this for src/rebalance policy code) — no magic numbers in decisions.
//    RebalancerOptions overrides the three that tests and benches tune.
//  * Hysteresis + cooldown: an imbalance must persist for
//    kHysteresisRounds consecutive planning rounds before acting, and a
//    completed (or timed-out) migration is followed by a cooldown so the
//    planner reacts to post-move telemetry, not its own wake.
//  * Overload/budget aware: a master is never chosen as target while its
//    recent p99.9, client queue, or dispatch backlog exceed the ceilings,
//    or when the candidate tablet would push it past its memory-budget
//    fraction. A kRetryLater from the split path aborts the round.
//  * One migration in flight, with a deadline: if it never commits (wedged
//    endpoint), the planner stands down to cooldown and leaves repair to the
//    coordinator's lease watchdog — it never "fixes" data paths itself.
//  * Coordinator-local: the planner runs on the coordinator's node and
//    decides from the coordinator's map, lifecycle table, membership view
//    and the piggybacked telemetry frames. It launches a migration with a
//    kMigrateTablet RPC to the target and learns of its commit from the
//    dependency drop the coordinator receives (on_migration_committed).
#ifndef ROCKSTEADY_SRC_REBALANCE_PLANNER_H_
#define ROCKSTEADY_SRC_REBALANCE_PLANNER_H_

#include <memory>
#include <optional>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/rebalance/telemetry.h"

namespace rocksteady {

// --- Policy thresholds (all named). ---
// Planning cadence; one decision per round, at most.
inline constexpr Tick kPlannerIntervalNs = 10 * kMillisecond;
// Frames older than this are ignored (a silent master is not a candidate).
inline constexpr Tick kTelemetryStalenessNs = 50 * kMillisecond;
// Planning needs at least this many fresh frames (one has nothing to
// balance against).
inline constexpr size_t kMinFreshFrames = 2;
// Act only when the hottest master exceeds the cluster mean by this factor.
inline constexpr double kImbalanceRatio = 1.3;
// ...and by at least this absolute rate (don't chase idle-cluster noise).
inline constexpr uint64_t kMinImbalanceOpsPerSec = 20'000;
// Consecutive imbalanced rounds required before acting.
inline constexpr int kHysteresisRounds = 2;
// Pause after a migration completes (or times out) before re-planning.
inline constexpr Tick kCooldownNs = 20 * kMillisecond;
// A planner-started migration that has not completed by this deadline is
// abandoned to the lease watchdog.
inline constexpr Tick kMigrationDeadlineNs = 2 * kSecond;
// Target eligibility ceilings (the PR-3 overload signals).
inline constexpr Tick kTargetP999CeilingNs = 300'000;
inline constexpr uint32_t kTargetQueueCeiling = 16;
inline constexpr Tick kTargetBacklogCeilingNs = 50'000;
// A move may not push the target past this fraction of its memory budget
// (matches the migration manager's low watermark — land with headroom).
inline constexpr double kTargetMemoryFraction = 0.75;
// Best-fit slack: a tablet whose rate exceeds the desired move by more than
// this factor is split rather than moved whole.
inline constexpr double kSplitOvershootFraction = 1.25;
// Drain evacuation: concurrent outbound migrations per planning loop while
// any master is kDraining. Each flight goes to a *distinct* target (a target
// master hosts one inbound migration manager at a time), so concurrency is
// also capped by the number of eligible targets.
inline constexpr int kDrainConcurrency = 2;
// A drain evacuation flight that has not completed by this deadline is
// dropped from the planner's books (the lease watchdog owns the repair) so
// the drain keeps making progress past a wedged endpoint.
inline constexpr Tick kDrainFlightDeadlineNs = 2 * kSecond;

// The thresholds a run may override; every other policy constant above is
// read directly.
struct RebalancerOptions {
  uint64_t min_imbalance_ops_per_sec = kMinImbalanceOpsPerSec;
  int hysteresis_rounds = kHysteresisRounds;
  Tick migration_deadline_ns = kMigrationDeadlineNs;
};

struct PlannerStats {
  uint64_t rounds = 0;
  uint64_t migrations_started = 0;
  uint64_t migrations_completed = 0;
  uint64_t migrations_timed_out = 0;
  uint64_t splits_requested = 0;
  uint64_t split_retries = 0;       // Split refused kRetryLater (round aborted).
  uint64_t skipped_balanced = 0;    // No actionable imbalance this round.
  uint64_t skipped_stale = 0;       // Too few fresh frames to judge.
  uint64_t skipped_no_candidate = 0;  // No movable/splittable tablet fits.
  uint64_t skipped_no_target = 0;     // No eligible target (overload/budget).
  // Drain evacuation (rounds where some master is kDraining).
  uint64_t drain_rounds = 0;
  uint64_t drain_migrations_started = 0;
  uint64_t drain_migrations_completed = 0;
  uint64_t drain_migrations_timed_out = 0;
  uint64_t drain_skipped_no_target = 0;  // Tablets left waiting for a target.
};

class RebalancePlanner {
 public:
  enum class State { kIdle, kArming, kMigrating, kCooldown };

  RebalancePlanner(Cluster* cluster, const RebalancerOptions& options = {});
  ~RebalancePlanner();

  RebalancePlanner(const RebalancePlanner&) = delete;
  RebalancePlanner& operator=(const RebalancePlanner&) = delete;

  // Starts the periodic planning loop (frames are consumed whether or not
  // the loop runs; Start is what makes decisions happen).
  void Start();
  void Stop();

  // Test hook: feed a frame directly, bypassing the piggyback path.
  void InjectFrame(const LoadTelemetryFrame& frame);

  // Test hook: run one planning round immediately.
  void PlanOnce();

  const PlannerStats& stats() const { return stats_; }
  State state() const { return state_; }
  const std::optional<LoadTelemetryFrame>& frame(ServerId server) const {
    return frames_[server - 1];
  }

 private:
  struct Candidate {
    TabletLoadSample tablet;
    ServerId source = 0;
  };

  // One outstanding planner-launched migration.
  struct Flight {
    ServerId source = 0;
    ServerId target = 0;
    TableId table = 0;
    KeyHash start_hash = 0;
    KeyHash end_hash = 0;
    Tick deadline = 0;
  };

  void ScheduleRound();
  // Drain evacuation. Returns true when drain mode owns this round (a
  // kDraining master exists or drain flights are outstanding) — the hot-spot
  // logic then stands down entirely, which also guarantees drain and
  // hot-spot migrations never race for the same target.
  bool PlanDrain(Tick now);
  // True if `target` may receive a drain flight now: alive, kActive, not
  // named by any lineage dependency as a target, and not already holding one
  // of our outstanding flights.
  bool DrainTargetFree(ServerId target) const;
  // Frames fresh enough to plan on, one per alive master; empty entries for
  // the rest. Also returns the loads (ops/s) for present frames.
  bool CollectLoads(std::vector<uint64_t>* loads, std::vector<bool>* fresh, Tick now);
  // Picks the tablet to move from `source`'s frame given the desired rate;
  // may request a split (returns nullopt for "acted by splitting" or "no
  // candidate" — `acted` distinguishes them).
  std::optional<TabletLoadSample> PickTablet(const LoadTelemetryFrame& source_frame,
                                             uint64_t desired_ops, bool* acted);
  // Chooses a histogram bin boundary inside `tablet` where cumulative ops
  // reach `desired_ops`, or 0 if no interior bin boundary exists.
  KeyHash ChooseSplitBoundary(const TabletLoadSample& tablet, uint64_t desired_ops) const;
  bool TargetEligible(const LoadTelemetryFrame& frame,
                      const TabletLoadSample& tablet) const;
  void LaunchMigration(const TabletLoadSample& tablet, ServerId source, ServerId target);
  // Asks the flight's target to pull the range (kMigrateTablet). A refused
  // or lost launch simply never commits, and the flight's deadline expires.
  void SendMigrateTablet(const Flight& flight);
  // on_migration_committed: retires the matching flight.
  void OnCommitted(ServerId source, ServerId target, TableId table);

  Cluster* cluster_;
  RebalancerOptions options_;
  PlannerStats stats_;
  State state_ = State::kIdle;
  bool running_ = false;
  int imbalanced_rounds_ = 0;
  Tick cooldown_until_ = 0;
  // The hot-spot migration in flight; always set while state_ is kMigrating.
  std::optional<Flight> hot_flight_;
  std::vector<Flight> drain_flights_;
  std::vector<std::optional<LoadTelemetryFrame>> frames_;  // Index = ServerId - 1.
  // Guards the planning timer across planner destruction.
  std::shared_ptr<bool> alive_;
};

}  // namespace rocksteady

#endif  // ROCKSTEADY_SRC_REBALANCE_PLANNER_H_
