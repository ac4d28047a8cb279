// Live migration end to end: build a simulated RAMCloud cluster, load a
// table, drive YCSB-B load against it, and live-migrate half the table with
// Rocksteady while the workload runs — then verify every record.
//
// This is the paper's headline scenario (Figures 9-11a) as a minimal
// program against the public API.
#include <cstdio>
#include <optional>

#include "bench/client_history.h"
#include "src/cluster/cluster.h"
#include "src/migration/rocksteady_target.h"

int main() {
  using namespace rocksteady;

  constexpr TableId kTable = 1;
  constexpr KeyHash kMid = 1ull << 63;
  constexpr uint64_t kRecords = 100'000;

  // A 4-server cluster (each server is master + backup) plus 2 clients.
  ClusterConfig config;
  config.num_masters = 4;
  config.num_clients = 2;
  Cluster cluster(config);
  EnableMigration(&cluster);

  // Create and load the table; it lives entirely on master 0.
  cluster.CreateTable(kTable, 0);
  cluster.LoadTable(kTable, kRecords, 30, 100);
  std::printf("loaded %llu records (%.1f MB of log) onto master 0\n",
              static_cast<unsigned long long>(kRecords),
              static_cast<double>(cluster.master(0).objects().log().total_bytes()) / 1e6);

  // Drive YCSB-B (95/5, Zipfian 0.99) against the table from both clients:
  // Poisson arrivals at 200k ops/s in all, at most 64 ops in flight per
  // client, for 2 s. Each client logs its ops and the values it wrote.
  const ClientHistories histories =
      StartClientHistories(cluster, kTable, 2 * kSecond, YcsbBChoice(kRecords),
                           PoissonGap(200'000), /*max_in_flight=*/64);

  // At t = 0.5 s, live-migrate the upper half of the hash space to master 1.
  std::optional<MigrationStats> stats;
  cluster.AtSafePoint(kSecond / 2, [&] {
    std::printf("t=0.5s: starting Rocksteady migration of the upper half...\n");
    StartRocksteadyMigration(&cluster, kTable, kMid, ~0ull, /*source=*/0, /*target=*/1,
                             RocksteadyOptions{},
                             [&](const MigrationStats& s) { stats = s; });
  });

  cluster.Run();

  if (stats.has_value()) {
    std::printf("migration done: %.1f MB in %.3f s (%.0f MB/s), %llu pulls, "
                "%llu PriorityPull batches\n",
                static_cast<double>(stats->bytes_pulled) / 1e6, stats->DurationSeconds(),
                stats->RateMBps(), static_cast<unsigned long long>(stats->pulls_completed),
                static_cast<unsigned long long>(stats->priority_pull_batches));
  }
  const OpCounts ops = CountOps(histories);
  std::printf("workload: %llu ops completed, %llu failed\n",
              static_cast<unsigned long long>(ops.ok()),
              static_cast<unsigned long long>(ops.failed()));
  LatencyTimeline reads(kSecond / 10, 20);
  RecordLatencies(histories, &reads);
  const Histogram totals = reads.Total();
  std::printf("read latency: median %.1f us, 99.9th %.1f us\n",
              static_cast<double>(totals.Percentile(0.5)) / 1e3,
              static_cast<double>(totals.Percentile(0.999)) / 1e3);

  // Verify every record: each reads back its loaded value or the last value
  // a client's write of it was acked with.
  const ReadBackResult check = VerifyReadBack(cluster, kTable, LoadedKeys(kRecords), histories);
  std::printf("read-back after migration: %llu records, %llu wrong or lost\n",
              static_cast<unsigned long long>(kRecords),
              static_cast<unsigned long long>(check.mismatches));
  std::printf("ownership of upper half now at master id %u (master 1 is id %u)\n",
              cluster.coordinator().OwnerOf(kTable, kMid), cluster.master(1).id());
  return check.mismatches == 0 ? 0 : 1;
}
