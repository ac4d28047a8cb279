// The episode runner: every seeded episode suite (chaos, overload chaos,
// rebalancer chaos, the lane and control-plane determinism suites, the
// end-to-end determinism test and the operational scenario matrix) is a
// ScenarioSpec run by RunScenario.
//
// A spec is *data*: the cluster shape, an optional lossy fabric, the load
// (ClientHistory's own op choice and gap), whether the rebalance planner
// runs, and a list of timed events (migrations, crashes, drains, standby
// activations, rolling restarts, core slowdowns), plus named phases for
// latency attribution. What a run turns on follows from the spec:
//  * a master crash (kCrashMaster, kCrashInMigration) starts the failure
//    detector and arms a hook that restarts each recovered master 1 ms
//    after its recovery completes; a rolling restart and the planner start
//    the detector too (the orchestrator restarts its own victims);
//  * with the detector running, the run stops at `horizon`, stops the
//    detector and the planner, and drains; without it, the run goes
//    straight through and posts no safe point beyond its own events.
// After the run, RunScenario audits the cluster invariants and reads every
// loaded key back against the clients' reference models (zero lost acked
// writes), then returns a Digest: the trace hash, counters and per-phase
// latencies that two runs of one (spec, seed) must reproduce bit-identically
// at every lane count, threaded or not.
//
// ScenarioMatrix() declares the five cloud-operations scenarios: scale-out,
// scale-in (drain), rolling restart, flash crowd, and a diurnal load curve.
// Tests run each as a 20-seed suite; bench/fig_scenarios.cc prints the
// per-phase latency tables.
#ifndef ROCKSTEADY_BENCH_SCENARIO_HARNESS_H_
#define ROCKSTEADY_BENCH_SCENARIO_HARNESS_H_

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "bench/client_history.h"
#include "src/cluster/cluster.h"
#include "src/migration/rocksteady_target.h"

namespace rocksteady {

// The table every episode loads, drives and reads back.
inline constexpr TableId kScenarioTable = 1;

// One timed action, run as a safe-point task at `at`.
struct ScenarioEvent {
  enum class Kind {
    kBeginDrain,          // Coordinator starts draining master_index.
    kActivateServer,      // Standby (or mid-drain cancel) -> kActive.
    kRollingRestart,      // Start the rolling-restart orchestrator.
    kMigrate,             // Rocksteady-migrate [start_hash, end_hash] from
                          // master_index to target_index with `options`.
    kCrashMaster,         // Crash master_index.
    kCrashInMigration,    // Crash master_index at the first 5 us poll (for
                          // 5 ms from `at`) at which a lineage dependency
                          // names it as a migration's source or target.
    kCrashCoordinator,
    kRestartCoordinator,
    kSlowCores,           // master_index's cores run `slowdown` times
                          // slower (1.0 restores them).
  };
  Kind kind = Kind::kBeginDrain;
  Tick at = 0;
  size_t master_index = 0;  // Ignored by kRollingRestart and the coordinator.
  size_t target_index = 0;  // kMigrate.
  KeyHash start_hash = 0;   // kMigrate.
  KeyHash end_hash = ~KeyHash{0};
  RocksteadyOptions options = {};
  double slowdown = 1.0;    // kSlowCores.
};

// A named time window for latency attribution: reads issued in [start, end).
struct ScenarioPhase {
  std::string name;
  Tick start = 0;
  Tick end = 0;
};

// A fabric that drops, duplicates (0.5% of messages) and delays (up to
// 2 us) messages. The injector's seed is seed * 1000 + 7.
struct LossyFabric {
  double drop_probability = 0.01;
};

// Four masters, two clients, 2^14 hash buckets and 64 KB segments: the
// cluster of every episode that does not say otherwise.
ClusterConfig EpisodeCluster();

struct ScenarioSpec {
  std::string name;
  ClusterConfig cluster = EpisodeCluster();  // The run sets seed and lanes.
  size_t standbys = 0;  // The last `standbys` masters start as kStandby.
  bool spread = true;   // Table spread over the active masters, or whole
                        // on master 0.
  std::optional<LossyFabric> fabric;
  uint64_t records = 1'500;  // Loaded with 30-byte keys, 100-byte values.
  ClientHistory::ChooseOp choose;  // Empty: YCSB-B over the loaded keys.
  ClientHistory::OpGap gap;
  Tick ops_stop = 50 * kMillisecond;  // Last arrival.
  bool planner = false;  // Telemetry + rebalance planner.
  Tick horizon = 90 * kMillisecond;  // Detector/planner stop here.
  std::vector<ScenarioEvent> events;
  std::vector<ScenarioPhase> phases;
};

struct PhaseLatency {
  std::string name;
  uint64_t ops = 0;
  Tick p50_ns = 0;
  Tick p999_ns = 0;

  bool operator==(const PhaseLatency&) const = default;
};

// Everything a run asserts on. `Digest` is the bit-identical-replay core:
// two runs of the same (spec, seed) must compare equal on it.
struct ScenarioResult {
  struct Digest {
    uint64_t trace_hash = 0;  // Run and read-back.
    uint64_t events_processed = 0;
    Tick end_time = 0;
    OpCounts ops;
    uint64_t lost_writes = 0;  // Read-back mismatches: must stay 0.
    // Fabric.
    uint64_t injected_drops = 0;
    uint64_t injected_duplicates = 0;
    uint64_t injected_delays = 0;
    uint64_t dropped_to_down_node = 0;
    uint64_t retransmissions = 0;
    // The spec's kMigrate events, summed over those that reported back.
    uint64_t migrations_finished = 0;
    uint64_t records_pulled = 0;
    uint64_t priority_pull_records = 0;
    uint64_t pacing_backoffs = 0;
    uint64_t pull_rejections = 0;
    // Failures and recovery.
    uint64_t crashes_detected = 0;
    uint64_t lineage_crashes = 0;       // kCrashInMigration crashes.
    uint64_t recoveries_completed = 0;  // Seen by the restart hook.
    uint64_t recovery_restarts = 0;     // Restarts the hook made.
    uint64_t masters_up = 0;            // At the end of the run.
    // Operations.
    uint64_t splits_performed = 0;
    uint64_t drains_completed = 0;
    uint64_t restarts_completed = 0;  // By the rolling-restart orchestrator.
    uint64_t planner_migrations_started = 0;
    uint64_t planner_migrations_completed = 0;
    uint64_t planner_drain_migrations_completed = 0;
    uint64_t client_sheds = 0;  // Over all masters.
    std::vector<uint64_t> master_objects;  // Object count per master.
    std::vector<PhaseLatency> phases;

    bool operator==(const Digest&) const = default;
    // Every field, so a diverging replay shows both runs in full.
    friend std::ostream& operator<<(std::ostream& os, const Digest& digest);
  };

  Digest digest;
  // Lane windows the run took before the read-back: one per safe point plus
  // one at one lane; more at higher lane counts, so not in the Digest.
  uint64_t windows = 0;
  std::string mismatch_detail;
  bool audits_ok = false;  // Coordinator tiling + per-master stores.
  std::string audit_summary;
  bool operations_converged = false;  // Drains decommissioned, restarts done.
};

// Runs one scenario at one seed on `lanes` event lanes, on worker threads
// when `threads`. Deterministic: the same (spec, seed) gives the same Digest
// at every lane count, threaded or not.
ScenarioResult RunScenario(const ScenarioSpec& spec, uint64_t seed, int lanes, bool threads);
// Threaded whenever there is more than one lane.
inline ScenarioResult RunScenario(const ScenarioSpec& spec, uint64_t seed, int lanes = 1) {
  return RunScenario(spec, seed, lanes, lanes > 1);
}

// The five cloud-operations scenarios: scale-out, scale-in, rolling
// restart, flash crowd, diurnal.
const std::vector<ScenarioSpec>& ScenarioMatrix();

}  // namespace rocksteady

#endif  // ROCKSTEADY_BENCH_SCENARIO_HARNESS_H_
