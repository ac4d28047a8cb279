// Rebalancer figure: "Autonomous rebalancing of a shifting Zipfian hot spot."
//
// Four masters each own a quarter of the hash space; an open-loop Zipfian
// workload aims 80% of its traffic at one master's quarter, then shifts the
// hot spot to a different master's quarter mid-run. Two otherwise identical
// runs (same seed, same telemetry taps): planner OFF (the hot master rides
// out the skew) vs planner ON (telemetry piggybacked on ping replies feeds
// the coordinator's planner, which splits the hot tablet at histogram
// boundaries and drives Rocksteady migrations until load levels out, then
// re-chases the hot spot after it shifts).
//
// Reported per phase: client p99.9 latency and the per-master load spread
// (max/mean of served ops). The rebalancer must strictly win on both.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/client_history.h"
#include "bench/experiment_common.h"
#include "src/common/hash.h"
#include "src/common/zipfian.h"
#include "src/migration/rocksteady_target.h"
#include "src/rebalance/planner.h"
#include "src/rebalance/telemetry.h"

namespace rocksteady {
namespace {

constexpr TableId kTable = 1;
constexpr uint64_t kSeed = 42;
constexpr int kMasters = 4;
constexpr int kClients = 8;
constexpr uint64_t kRecords = 200'000;
constexpr KeyHash kQuarter = KeyHash{1} << 62;

// Masters are dispatch-bound at ~1M ops/s each (~1 us of dispatch per RPC).
// 900k ops/s offered with 80% aimed at one quarter puts the hot master near
// saturation until the planner spreads its quarter.
constexpr double kOfferedOpsPerSecond = 900'000.0;
constexpr double kHotFraction = 0.8;
constexpr double kZipfTheta = 0.99;
constexpr double kWriteFraction = 0.05;

// Two phases: hot spot on master 0's quarter, then on master 2's.
constexpr Tick kPhaseLength = 500 * kMillisecond;
constexpr int kNumPhases = 2;
constexpr size_t kHotQuarterByPhase[kNumPhases] = {0, 2};

struct PhaseMetrics {
  uint64_t p999_ns = 0;
  uint64_t p50_ns = 0;
  uint64_t ops_completed = 0;
  std::vector<uint64_t> served_per_master;

  double Spread() const {
    uint64_t max = 0, total = 0;
    for (uint64_t s : served_per_master) {
      max = std::max(max, s);
      total += s;
    }
    const double mean = static_cast<double>(total) / served_per_master.size();
    return mean == 0 ? 0 : static_cast<double>(max) / mean;
  }
};

struct RunResult {
  PhaseMetrics phase[kNumPhases];
  uint64_t splits = 0;
  uint64_t migrations = 0;
};

RunResult Run(bool planner_on) {
  Cluster cluster(MakeConfig(kMasters, kClients, kSeed));
  EnableMigration(&cluster);
  cluster.CreateTable(kTable, 0);
  SpreadTableAcross(cluster, kTable, kMasters);
  cluster.LoadTable(kTable, kRecords, 30, 100);

  // Key pools per quarter: the workload aims its hot mass at one master's
  // hash quarter, which ScrambledZipfian alone cannot do (it spreads hot
  // keys uniformly over the hash space).
  std::vector<std::vector<std::string>> quarter_pool(kMasters);
  std::vector<std::string> all_keys;
  for (uint64_t i = 0; i < kRecords; i++) {
    std::string key = Cluster::MakeKey(i, 30);
    quarter_pool[HashKey(kTable, key) / kQuarter].push_back(key);
    all_keys.push_back(std::move(key));
  }

  // Identical telemetry taps in both runs (same event stream either way);
  // only the planner differs.
  ClusterTelemetry telemetry(&cluster);
  std::unique_ptr<RebalancePlanner> planner;
  if (planner_on) {
    planner = std::make_unique<RebalancePlanner>(&cluster);
    planner->Start();
  }
  cluster.coordinator().StartFailureDetector();

  // Per-master served-op counters, chained in front of the telemetry tap.
  // Each master's tap runs on that master's node and counts into its own
  // slot.
  RunResult result;
  for (int p = 0; p < kNumPhases; p++) {
    result.phase[p].served_per_master.assign(kMasters, 0);
  }
  for (int m = 0; m < kMasters; m++) {
    MasterServer& master = cluster.master(static_cast<size_t>(m));
    auto inner = master.on_access;
    master.on_access = [&result, &master, m, inner](TableId table, KeyHash hash, bool is_write,
                                                    size_t bytes) {
      const int p =
          std::min<int>(static_cast<int>(master.sim().now() / kPhaseLength), kNumPhases - 1);
      result.phase[p].served_per_master[static_cast<size_t>(m)]++;
      if (inner) {
        inner(table, hash, is_write, bytes);
      }
    };
  }

  // Open-loop Zipfian load from every client: 80% of ops draw
  // (Zipfian-ranked) from the current hot quarter's pool, the rest uniformly
  // from the whole table.
  const Tick op_gap = static_cast<Tick>(1e9 / kOfferedOpsPerSecond);
  const Tick experiment_end = kNumPhases * kPhaseLength;
  const ClientHistories histories = StartClientHistories(
      cluster, kTable, experiment_end,
      [&, hot_rank = std::make_shared<const ZipfianGenerator>(quarter_pool[0].size(), kZipfTheta)](
          Random& rng, Tick now) {
        const int phase = std::min<int>(static_cast<int>(now / kPhaseLength), kNumPhases - 1);
        const auto& hot_pool = quarter_pool[kHotQuarterByPhase[phase]];
        std::string key = rng.NextDouble() < kHotFraction
                              ? hot_pool[hot_rank->Next(rng) % hot_pool.size()]
                              : all_keys[rng.Uniform(all_keys.size())];
        return YcsbWorkload::Op{.is_read = rng.NextDouble() >= kWriteFraction,
                                .key = std::move(key)};
      },
      [op_gap](Random&, Tick) { return op_gap; }, ClientHistory::kUnbounded);

  cluster.RunUntil(experiment_end);
  if (planner) {
    planner->Stop();
  }
  cluster.coordinator().StopFailureDetector();
  cluster.Run();

  // Every op, by the phase it completed in.
  LatencyTimeline latency(kPhaseLength, kNumPhases);
  ForEachOp(histories, [&latency](const OpRecord& op) {
    latency.Record(op.completed, op.completed - op.issued);
  });
  for (int p = 0; p < kNumPhases; p++) {
    result.phase[p].p999_ns = latency.Percentile(static_cast<size_t>(p), 0.999);
    result.phase[p].p50_ns = latency.Percentile(static_cast<size_t>(p), 0.5);
    result.phase[p].ops_completed = latency.Count(static_cast<size_t>(p));
  }
  result.splits = cluster.coordinator().splits_performed();
  result.migrations = planner ? planner->stats().migrations_started : 0;
  return result;
}

}  // namespace
}  // namespace rocksteady

int main() {
  using namespace rocksteady;
  std::printf("Autonomous rebalancing of a shifting Zipfian hot spot\n");
  std::printf("=====================================================\n");
  std::printf(
      "4 masters, %.0fk ops/s offered, %.0f%% of traffic Zipfian(%.2f) on one master's\n"
      "hash quarter; the hot spot shifts from master 0's quarter to master 2's at t=%.1fs.\n\n",
      kOfferedOpsPerSecond / 1e3, kHotFraction * 100, kZipfTheta,
      static_cast<double>(kPhaseLength) / 1e9);

  const RunResult off = Run(/*planner_on=*/false);
  const RunResult on = Run(/*planner_on=*/true);

  std::printf("%-8s %-10s %12s %12s %14s %18s\n", "phase", "planner", "p50 (us)", "p99.9 (us)",
              "completed", "load spread (max/mean)");
  for (int p = 0; p < kNumPhases; p++) {
    std::printf("%-8d %-10s %12.1f %12.1f %14llu %18.2f\n", p, "off",
                ToUs(static_cast<Tick>(off.phase[p].p50_ns)),
                ToUs(static_cast<Tick>(off.phase[p].p999_ns)),
                static_cast<unsigned long long>(off.phase[p].ops_completed),
                off.phase[p].Spread());
    std::printf("%-8d %-10s %12.1f %12.1f %14llu %18.2f\n", p, "on",
                ToUs(static_cast<Tick>(on.phase[p].p50_ns)),
                ToUs(static_cast<Tick>(on.phase[p].p999_ns)),
                static_cast<unsigned long long>(on.phase[p].ops_completed),
                on.phase[p].Spread());
  }
  std::printf("\nplanner actions: %llu tablet splits, %llu migrations\n",
              static_cast<unsigned long long>(on.splits),
              static_cast<unsigned long long>(on.migrations));

  bool wins = true;
  for (int p = 0; p < kNumPhases; p++) {
    wins = wins && on.phase[p].p999_ns < off.phase[p].p999_ns &&
           on.phase[p].Spread() < off.phase[p].Spread();
  }
  std::printf("planner-on strictly wins on p99.9 and load spread in every phase: %s\n",
              wins ? "yes" : "NO");
  return wins ? 0 : 1;
}
