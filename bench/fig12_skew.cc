// Figure 12: "Impact of workload access skew on source-side dispatch load."
//
// Runs the Figure 9 experiment at Zipfian skew theta in {0, 0.5, 0.99, 1.5}
// and reports the source's dispatch-core utilization over time. Paper
// result: batched PriorityPulls hide the extra dispatch load of background
// Pulls regardless of skew — source dispatch load stays roughly flat from
// migration start to completion (it *steps down* at the ownership transfer
// and stays there).
#include <cstdio>
#include <optional>

#include "bench/experiment_common.h"
#include "src/migration/rocksteady_target.h"

namespace rocksteady {
namespace {

constexpr TableId kTable = 1;
constexpr KeyHash kMid = 1ull << 63;
constexpr uint64_t kRecords = 2'000'000;
constexpr int kClients = 8;
constexpr double kOfferedOpsPerSecond = 800'000.0 * 0.8;
constexpr Tick kWindow = kSecond / 10;
constexpr int kNumWindows = 30;
constexpr Tick kMigrateAt = kSecond;

struct SkewResult {
  double theta = 0;
  std::vector<double> src_dispatch;
  double migration_seconds = 0;
  uint64_t pp_records = 0;
};

SkewResult RunSkew(double theta) {
  Cluster cluster(MakeConfig(4, kClients, 1.0));
  EnableMigration(&cluster);
  cluster.CreateTable(kTable, 0);
  cluster.LoadTable(kTable, kRecords, 30, 100);

  YcsbConfig ycsb = YcsbConfig::WorkloadB();
  ycsb.num_records = kRecords;
  ycsb.theta = theta;
  YcsbWorkload workload(ycsb);

  UtilizationTimeline src_dispatch(kWindow, kNumWindows);
  cluster.master(0).cores().set_dispatch_util(&src_dispatch);

  const Tick experiment_end = static_cast<Tick>(kNumWindows) * kWindow;
  std::vector<std::unique_ptr<ClientActor>> actors;
  for (int c = 0; c < kClients; c++) {
    ClientActorConfig actor_config;
    actor_config.ops_per_second = kOfferedOpsPerSecond / kClients;
    actor_config.max_outstanding = 32;
    actor_config.stop_time = experiment_end;
    actors.push_back(
        std::make_unique<ClientActor>(kTable, &cluster.client(c), &workload, actor_config));
    actors.back()->Start();
  }

  std::optional<MigrationStats> stats;
  cluster.AtSafePoint(kMigrateAt, [&] {
    StartRocksteadyMigration(&cluster, kTable, kMid, ~0ull, 0, 1, RocksteadyOptions{},
                             [&](const MigrationStats& s) { stats = s; });
  });
  cluster.RunUntil(experiment_end);

  SkewResult result;
  result.theta = theta;
  for (int w = 0; w < kNumWindows; w++) {
    result.src_dispatch.push_back(src_dispatch.ActiveCores(static_cast<size_t>(w)));
  }
  if (stats.has_value()) {
    result.migration_seconds = stats->DurationSeconds();
    result.pp_records = stats->priority_pull_records;
  }
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
    std::printf("%-12.2f %18.3f %18llu\n", r.theta, r.migration_seconds,
                static_cast<unsigned long long>(r.pp_records));
  }
  return 0;
}
