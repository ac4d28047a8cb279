// Config-driven operational-scenario harness.
//
// A scenario is *data*: cluster shape, a load curve, a list of timed
// operator events (drain a master, activate a standby, start a rolling
// restart), and named phases for latency attribution. RunScenario() executes
// one (spec, seed) pair on a lossy fabric with the full operations stack
// live — rebalance planner, failure detector, drain protocol, rolling
// restart — and returns a digest carrying:
//  * durability accounting (the shared client-side load and read-back of
//    bench/client_history.h: every read at the end must return the last
//    acked write or a concurrently-failed value — zero lost acked writes),
//  * cluster invariant audits (coordinator tiling + per-master store),
//  * per-phase p50/p99.9 read latency, from the clients' op logs,
//  * the simulator trace hash, so running the same (spec, seed) twice, at
//    any lane count, must produce bit-identical digests (the determinism
//    gate).
//
// ScenarioMatrix() declares the five cloud-operations scenarios the north
// star asks for: scale-out, scale-in (drain), rolling restart, flash crowd,
// and a diurnal load curve. Tests run each as a 20-seed chaos suite;
// bench/fig_scenarios.cc prints the per-phase latency tables.
#ifndef ROCKSTEADY_BENCH_SCENARIO_HARNESS_H_
#define ROCKSTEADY_BENCH_SCENARIO_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench/client_history.h"
#include "src/cluster/cluster.h"

namespace rocksteady {

// How the offered load varies over the run.
enum class LoadShape {
  kConstant,    // Fixed op gap throughout.
  kDiurnal,     // Triangle wave: trough -> peak -> trough across the run.
  kFlashCrowd,  // Constant, then a burst window aims 80% of ops at a few
                // hot keys at a multiple of the base rate.
};

// One timed operator action.
struct ScenarioEvent {
  enum class Kind {
    kBeginDrain,      // Coordinator starts draining master_index.
    kActivateServer,  // Standby (or mid-drain cancel) -> kActive.
    kRollingRestart,  // Start the rolling-restart orchestrator.
  };
  Kind kind = Kind::kBeginDrain;
  Tick at = 0;
  size_t master_index = 0;  // Ignored by kRollingRestart.
};

// A named time window for latency attribution ([start, end) in sim time).
struct ScenarioPhase {
  std::string name;
  Tick start = 0;
  Tick end = 0;
};

struct ScenarioSpec {
  std::string name;
  size_t masters = 4;      // Total servers, including standbys.
  size_t standbys = 0;     // Last `standbys` masters start as kStandby.
  size_t clients = 2;
  uint64_t records = 1'500;
  Tick op_gap = 10 * kMicrosecond;   // Base offered rate (~100k ops/s).
  double write_fraction = 0.10;
  Tick ops_stop = 50 * kMillisecond;
  Tick horizon = 90 * kMillisecond;  // RunUntil() bound before draining.
  LoadShape shape = LoadShape::kConstant;
  // Flash-crowd parameters (used when shape == kFlashCrowd).
  Tick flash_start = 0;
  Tick flash_end = 0;
  int flash_rate_multiplier = 3;
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
    uint64_t trace_hash = 0;
    uint64_t events_processed = 0;
    OpCounts ops;
    uint64_t drains_completed = 0;
    uint64_t restarts_completed = 0;
    uint64_t migrations_completed = 0;
    std::vector<PhaseLatency> phases;

    bool operator==(const Digest&) const = default;
  };

  Digest digest;
  uint64_t mismatches = 0;      // Acked writes lost or corrupted (must be 0).
  std::string mismatch_detail;
  bool audits_ok = false;       // Coordinator tiling + per-master stores.
  std::string audit_summary;
  bool operations_converged = false;  // Drains decommissioned, restarts done.
};

// Runs one scenario at one seed on `lanes` event lanes (worker threads when
// more than one). Deterministic: the same (spec, seed) gives the same Digest
// at every lane count.
ScenarioResult RunScenario(const ScenarioSpec& spec, uint64_t seed, int lanes = 1);

// The five cloud-operations scenarios: scale-out, scale-in, rolling
// restart, flash crowd, diurnal.
const std::vector<ScenarioSpec>& ScenarioMatrix();

}  // namespace rocksteady

#endif  // ROCKSTEADY_BENCH_SCENARIO_HARNESS_H_
