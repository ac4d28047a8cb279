// Live migration end to end: build a simulated RAMCloud cluster, load a
// table, drive YCSB-B load against it, and live-migrate half the table with
// Rocksteady while the workload runs — then verify every record.
//
// This is the paper's headline scenario (Figures 9-11a) as a minimal
// program against the public API.
#include <cstdio>
#include <optional>

#include "src/cluster/cluster.h"
#include "src/migration/rocksteady_target.h"
#include "src/workload/client_actor.h"
#include "src/workload/ycsb.h"

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

  // Drive YCSB-B (95/5, Zipfian 0.99) against the table.
  YcsbConfig ycsb = YcsbConfig::WorkloadB();
  ycsb.num_records = kRecords;
  YcsbWorkload workload(ycsb);
  LatencyTimeline reads(kSecond / 10, 20);
  ClientActorConfig actor_config;
  actor_config.ops_per_second = 200'000;
  actor_config.max_outstanding = 64;
  actor_config.stop_time = 2 * kSecond;
  ClientActor actor(kTable, &cluster.client(0), &workload, actor_config);
  actor.set_read_latency(&reads);
  actor.Start();

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
  std::printf("workload: %llu ops completed, %llu failed\n",
              static_cast<unsigned long long>(actor.completed()),
              static_cast<unsigned long long>(actor.failed()));
  const Histogram totals = reads.Total();
  std::printf("read latency: median %.1f us, 99.9th %.1f us\n",
              static_cast<double>(totals.Percentile(0.5)) / 1e3,
              static_cast<double>(totals.Percentile(0.999)) / 1e3);

  // Verify every record is still readable with the right contents.
  int ok = 0;
  for (uint64_t i = 0; i < kRecords; i += 997) {
    cluster.client(1).Read(kTable, Cluster::MakeKey(i, 30),
                           [&](Status status, const std::string& value) {
                             // Loaded records hold 'v's; the 5% YCSB writes
                             // overwrote some with 'w's — both are intact.
                             ok += (status == Status::kOk &&
                                    (value == std::string(100, 'v') ||
                                     value == std::string(100, 'w')));
                           });
  }
  cluster.Run();
  std::printf("spot check after migration: %d/%d records intact\n", ok,
              static_cast<int>((kRecords + 996) / 997));
  std::printf("ownership of upper half now at master id %u (master 1 is id %u)\n",
              cluster.coordinator().OwnerOf(kTable, kMid), cluster.master(1).id());
  return 0;
}
