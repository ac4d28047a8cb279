// Figure 12: "Impact of workload access skew on source-side dispatch load."
//
// Runs the Figure 9 experiment at Zipfian skew theta in {0, 0.5, 0.99, 1.5}
// and reports the source's dispatch-core utilization over time. Paper
// result: batched PriorityPulls hide the extra dispatch load of background
// Pulls regardless of skew — source dispatch load stays roughly flat from
// migration start to completion (it *steps down* at the ownership transfer
// and stays there).
#include <cstdio>

#include "bench/migration_under_load.h"

namespace rocksteady {
namespace {

constexpr uint64_t kRecords = 2'000'000;
constexpr int kClients = 8;
constexpr double kOfferedOpsPerSecond = 800'000.0 * 0.8;
constexpr Tick kWindow = kSecond / 10;
constexpr int kNumWindows = 30;
constexpr Tick kMigrateAt = kSecond;
constexpr Tick kEnd = static_cast<Tick>(kNumWindows) * kWindow;

struct SkewResult {
  double theta = 0;
  std::vector<double> src_dispatch;
  std::optional<MigrationStats> stats;
};

SkewResult RunSkew(double theta) {
  UtilizationTimeline src_dispatch(kWindow, kNumWindows);
  MigrationUnderLoad spec;
  spec.config = MakeConfig(4, kClients);
  spec.records = kRecords;
  spec.theta = theta;
  spec.ops_per_second = kOfferedOpsPerSecond / kClients;
  spec.stop_time = kEnd;
  spec.migrate_at = kMigrateAt;
  spec.source_dispatch = &src_dispatch;
  MigrationUnderLoadRun run(spec);
  run.cluster().RunUntil(kEnd);

  SkewResult result;
  result.theta = theta;
  for (int w = 0; w < kNumWindows; w++) {
    result.src_dispatch.push_back(src_dispatch.ActiveCores(static_cast<size_t>(w)));
  }
  result.stats = run.stats();
  return result;
}

}  // namespace
}  // namespace rocksteady

int main() {
  using namespace rocksteady;
  std::printf("Figure 12: source-side dispatch load vs. workload skew\n");
  std::printf("=======================================================\n");
  std::printf("YCSB-B at ~80%% source dispatch load; migration of half the table at t=1 s.\n");
  std::printf("(paper: dispatch load stays ~flat through migration at every skew)\n\n");

  std::vector<SkewResult> results;
  for (double theta : {0.0, 0.5, 0.99, 1.5}) {
    results.push_back(RunSkew(theta));
  }

  std::printf("%6s", "t(s)");
  for (const auto& r : results) {
    std::printf("  theta=%-6.2f", r.theta);
  }
  std::printf("   (source dispatch load, active cores 0-1)\n");
  for (int w = 0; w < kNumWindows; w++) {
    std::printf("%6.1f", static_cast<double>(w) * 0.1);
    for (const auto& r : results) {
      std::printf("  %12.3f", r.src_dispatch[static_cast<size_t>(w)]);
    }
    std::printf("\n");
  }
  std::printf("\n%-12s %18s %18s\n", "theta", "migration (s)", "PP records");
  for (const auto& r : results) {
    if (!r.stats.has_value()) {
      std::printf("%-12.2f %s\n", r.theta, UnfinishedMigration(kEnd).c_str());
      continue;
    }
    std::printf("%-12.2f %18.3f %18llu\n", r.theta, r.stats->DurationSeconds(),
                static_cast<unsigned long long>(r.stats->priority_pull_records));
  }
  return 0;
}
