// Wall-clock throughput of the simulation engine itself.
//
// Every figure in this reproduction is bounded by how many simulated events
// per second the engine dispatches, so this driver measures exactly that —
// no paper metric, just engine speed — across three single-lane scenarios
// of increasing realism:
//
//   dispatch        self-rescheduling timer chains on one node: pure queue +
//                   callback overhead, zero application work.
//   ycsb_b          steady-state YCSB-B against 4 masters (full RPC stack,
//                   dispatch/worker cores, no migration).
//   ycsb_migration  YCSB-B with a Rocksteady migration of half the table
//                   mid-run — the acceptance scenario for engine PRs.
//
// The *_lanes scenarios run at lanes {1, 2, 4}, threaded above one lane,
// and report each run's measured wall time; the binary exits 1 if their
// trace hashes differ. Threaded timings only mean something next to
// the host's CPU count, which tools/bench_baseline.py stamps on each entry.
//
// Output is one JSON object per line, parsed by tools/bench_baseline.py into
// BENCH_engine.json. Each line carries the run's trace_hash so that engine
// optimizations can be checked for bit-identical schedules against the
// recorded baseline (determinism is non-negotiable; see DESIGN.md).
//
// Wall-clock timing is deliberate and allowed here: bench/ is outside the
// determinism lint's scope, and the measured time never feeds back into
// simulation state.
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "bench/migration_under_load.h"
#include "src/common/inline_function.h"
#include "tests/alloc_hook.h"

namespace rocksteady {
namespace {

struct ScenarioResult {
  size_t events = 0;
  double wall_s = 0;
  Tick sim_ns = 0;
  uint64_t trace_hash = 0;
  uint64_t allocs = 0;
  uint64_t fn_fallbacks = 0;  // InlineFunction closures that heap-boxed.
  int lanes = 1;              // Lanes > 1 run threaded.
  uint64_t windows = 0;
};

void Report(const char* scenario, uint64_t seed, const ScenarioResult& r) {
  const double events_per_s = r.wall_s > 0 ? static_cast<double>(r.events) / r.wall_s : 0;
  const double allocs_per_event =
      r.events > 0 ? static_cast<double>(r.allocs) / static_cast<double>(r.events) : 0;
  std::printf(
      "{\"scenario\":\"%s\",\"seed\":%" PRIu64 ",\"events\":%zu,\"wall_s\":%.6f,"
      "\"events_per_s\":%.0f,\"sim_s\":%.6f,\"trace_hash\":\"0x%016" PRIx64 "\","
      "\"allocs\":%" PRIu64 ",\"allocs_per_event\":%.3f,\"fn_fallbacks\":%" PRIu64,
      scenario, seed, r.events, r.wall_s, events_per_s,
      static_cast<double>(r.sim_ns) / 1e9, r.trace_hash, r.allocs, allocs_per_event,
      r.fn_fallbacks);
  std::printf(",\"lanes\":%d,\"lane_threads\":%s,\"windows\":%" PRIu64 "}\n", r.lanes,
              r.lanes > 1 ? "true" : "false", r.windows);
  std::fflush(stdout);
}

// Times `run` (the event loop only — setup is excluded) and snapshots the
// global allocation counter around it.
template <typename F>
void Measure(F&& run, ScenarioResult* result) {
  const uint64_t allocs_before = GlobalAllocCount();
  const uint64_t fallbacks_before = InlineFunctionHeapFallbacks();
  const auto start = std::chrono::steady_clock::now();
  run();
  const auto end = std::chrono::steady_clock::now();
  result->wall_s = std::chrono::duration<double>(end - start).count();
  result->allocs = GlobalAllocCount() - allocs_before;
  result->fn_fallbacks = InlineFunctionHeapFallbacks() - fallbacks_before;
}

// --- dispatch: K self-rescheduling chains, period 100 ns. ---

class Chain {
 public:
  Chain(Simulator* sim, Tick period, Tick stop) : sim_(sim), period_(period), stop_(stop) {}

  // Starts the chain at `at` on `node`. Each step reschedules on the node it
  // runs on.
  void Start(Tick at, NodeId node) {
    sim_->At(at, node, [this] { Step(); });
  }

 private:
  void Step() {
    const Tick next = sim_->now() + period_;
    if (next <= stop_) {
      sim_->At(next, [this] { Step(); });
    }
  }

  Simulator* sim_;
  Tick period_;
  Tick stop_;
};

// K chains over `nodes` nodes round-robined across `lanes` lanes: `dispatch`
// keeps every chain on one node of one lane, `dispatch_lanes` gives each
// chain its own node.
ScenarioResult RunDispatch(uint64_t seed, bool smoke, int lanes, int nodes) {
  constexpr int kChains = 32;
  constexpr Tick kPeriod = 100;
  const Tick stop = smoke ? kMillisecond : 10 * kMillisecond;

  LaneSet::Config lane_config;
  lane_config.lanes = lanes;
  lane_config.threads = lanes > 1;
  lane_config.lookahead = 1'150;  // The cluster's cross-lane horizon.
  lane_config.seed = seed;
  LaneSet set(lane_config);
  for (int i = 0; i < nodes; i++) {
    set.AssignNode(static_cast<NodeId>(i), i % lanes);
  }
  std::vector<std::unique_ptr<Chain>> chains;
  for (int i = 0; i < kChains; i++) {
    const auto node = static_cast<NodeId>(i % nodes);
    chains.push_back(std::make_unique<Chain>(set.SimFor(node), kPeriod, stop));
    chains.back()->Start(static_cast<Tick>(i), node);  // Staggered starts.
  }
  ScenarioResult result;
  Measure([&] { set.Run(); }, &result);
  result.events = set.events_processed();
  result.sim_ns = set.now();
  result.trace_hash = set.trace_hash();
  result.lanes = lanes;
  result.windows = set.windows_run();
  return result;
}

// --- ycsb_b / ycsb_migration: the full stack. ---

// The base of the full-stack scenarios: 4 masters with small hash tables
// and two clients, each at 75k ops/s with at most eight in flight.
MigrationUnderLoad ClusterScenario() {
  MigrationUnderLoad spec;
  spec.config = MakeConfig(4, 2);
  spec.config.master.hash_table_log2_buckets = 15;
  spec.records = 20'000;
  // The loaded keys are 12 bytes, but the clients ask for YCSB's 30-byte
  // keys, so reads find only what the clients' own updates wrote; the
  // recorded trace hashes pin this load.
  spec.key_length = 12;
  spec.ops_per_second = 75'000;
  spec.max_outstanding = 8;
  return spec;
}

ScenarioResult RunCluster(uint64_t seed, int lanes, MigrationUnderLoad spec) {
  spec.config.seed = seed;
  spec.config.lanes = lanes;
  spec.config.lane_threads = lanes > 1;
  MigrationUnderLoadRun run(spec);
  Cluster& cluster = run.cluster();

  ScenarioResult result;
  const size_t events_before = cluster.events_processed();
  Measure([&] { cluster.Run(); }, &result);
  result.events = cluster.events_processed() - events_before;
  result.sim_ns = cluster.now();
  result.trace_hash = cluster.trace_hash();
  result.lanes = lanes;
  result.windows = cluster.lanes()->windows_run();
  if (spec.migrate_at.has_value() && !run.stats().has_value()) {
    std::fprintf(stderr, "engine_throughput: migration did not complete (seed %" PRIu64 ")\n",
                 seed);
    std::exit(1);
  }
  if (run.completed() == 0) {
    std::fprintf(stderr, "engine_throughput: no client ops completed (seed %" PRIu64 ")\n", seed);
    std::exit(1);
  }
  return result;
}

// Runs a lane scenario at lanes {1, 2, 4} (threaded above one lane),
// reports each measured run, and dies if any trace hash diverges: identical
// schedules across lane counts and threading is the sharded engine's
// contract.
template <typename RunFn>
void ReportLaneSweep(const char* scenario, uint64_t seed, RunFn&& run) {
  std::vector<ScenarioResult> results;
  for (const int lanes : {1, 2, 4}) {
    results.push_back(run(lanes));
    if (results.back().trace_hash != results.front().trace_hash) {
      std::fprintf(stderr,
                   "engine_throughput: %s trace hash diverged at %d lanes "
                   "(0x%016" PRIx64 " vs 0x%016" PRIx64 " at 1 lane)\n",
                   scenario, lanes, results.back().trace_hash, results.front().trace_hash);
      std::exit(1);
    }
  }
  for (const ScenarioResult& r : results) {
    Report(scenario, seed, r);
  }
}

int Main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke]\n", argv[0]);
      return 2;
    }
  }

  Report("dispatch", 42, RunDispatch(42, smoke, /*lanes=*/1, /*nodes=*/1));

  ReportLaneSweep("dispatch_lanes", 42,
                  [&](int lanes) { return RunDispatch(42, smoke, lanes, /*nodes=*/32); });

  MigrationUnderLoad steady = ClusterScenario();
  steady.spread = true;
  steady.records = smoke ? 4'000 : 20'000;
  steady.stop_time = smoke ? 20 * kMillisecond : 100 * kMillisecond;
  Report("ycsb_b", 42, RunCluster(42, 1, steady));

  MigrationUnderLoad migration = ClusterScenario();  // Whole table on master 0.
  migration.records = smoke ? 4'000 : 20'000;
  migration.stop_time = smoke ? 30 * kMillisecond : 120 * kMillisecond;
  migration.migrate_at = smoke ? 10 * kMillisecond : 20 * kMillisecond;
  Report("ycsb_migration", 42, RunCluster(42, 1, migration));
  if (!smoke) {
    Report("ycsb_migration", 7, RunCluster(7, 1, migration));
  }

  ReportLaneSweep("ycsb_migration_lanes", 42,
                  [&](int lanes) { return RunCluster(42, lanes, migration); });

  if (!smoke) {
    // The paper-shape scaling point: 24 masters (Figure 15's cluster size)
    // under spread YCSB-B load. Its measured wall time at 1 vs 4 lanes is
    // the parallel speedup of lane execution on this host.
    MigrationUnderLoad fig15 = ClusterScenario();
    fig15.spread = true;
    fig15.config.num_masters = 24;
    fig15.config.num_clients = 8;
    fig15.records = 48'000;
    fig15.ops_per_second = 800'000;  // 6.4M ops/s aggregate keeps lanes busy.
    fig15.stop_time = 60 * kMillisecond;
    ReportLaneSweep("fig15_24srv_lanes", 42,
                    [&](int lanes) { return RunCluster(42, lanes, fig15); });
  }
  return 0;
}

}  // namespace
}  // namespace rocksteady

int main(int argc, char** argv) { return rocksteady::Main(argc, argv); }
