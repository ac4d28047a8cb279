// Figures 9, 10, and 11: YCSB-B throughput, client-observed read latency
// (median + 99.9th), and dispatch/worker core utilization over time while
// half of a table live-migrates, for three protocols:
//   (a) Rocksteady (immediate ownership + async batched PriorityPulls +
//       parallel low-priority Pulls + lazy re-replication)
//   (b) Rocksteady without PriorityPulls
//   (c) source retains ownership (pre-copy rounds + freeze + delta) with
//       synchronous re-replication
//
// Paper headline (§4.2): (a) migrates at 758 MB/s with 99.9th <= 250 us and
// median ~10 us under load; (b) strands reads until their records are
// pulled (19% faster transfer); (c) is 27.7% slower and cannot use the
// target's resources during migration.
//
// Scaling: the paper ran 120 s against a 27.9 GB table (migration ~30 s);
// this driver runs a proportionally shorter window against a scaled table
// (migration rates are size-independent, so only the plot's x-extent
// changes). See EXPERIMENTS.md.
#include <cstdio>
#include <cstring>
#include <optional>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "bench/experiment_common.h"
#include "src/migration/rocksteady_target.h"

namespace rocksteady {
namespace {

constexpr TableId kTable = 1;
constexpr KeyHash kMid = 1ull << 63;
constexpr double kDilation = 1.0;
constexpr uint64_t kRecords = 3'500'000;  // ~600 MB of log; ~300 MB migrates.
constexpr int kClients = 8;
// 80% dispatch load on the source (its capacity is ~1 op/us).
constexpr double kOfferedOpsPerSecondReal = 800'000.0 * 0.8;
constexpr Tick kWindow = kSecond / 10;
constexpr int kNumWindows = 40;
constexpr Tick kMigrateAt = kSecond;

void RunMode(const char* name, MigrationMode mode) {
  Scale scale{kDilation};
  const Tick window_dilated_early = static_cast<Tick>(static_cast<double>(kWindow) * kDilation);
  const Tick experiment_end = static_cast<Tick>(kNumWindows) * window_dilated_early;

  Cluster cluster(MakeConfig(4, kClients, kDilation));
  EnableMigration(&cluster);
  cluster.CreateTable(kTable, 0);
  cluster.LoadTable(kTable, kRecords, 30, 100);

  YcsbConfig ycsb = YcsbConfig::WorkloadB();
  ycsb.num_records = kRecords;
  YcsbWorkload workload(ycsb);

  const Tick window_dilated = static_cast<Tick>(static_cast<double>(kWindow) * kDilation);
  LatencyTimeline reads(window_dilated, kNumWindows);
  LatencyTimeline all_ops(window_dilated, kNumWindows);
  UtilizationTimeline src_dispatch(window_dilated, kNumWindows);
  UtilizationTimeline src_worker(window_dilated, kNumWindows);
  UtilizationTimeline tgt_dispatch(window_dilated, kNumWindows);
  UtilizationTimeline tgt_worker(window_dilated, kNumWindows);
  CounterTimeline migrated(window_dilated, kNumWindows);
  cluster.master(0).cores().set_dispatch_util(&src_dispatch);
  cluster.master(0).cores().set_worker_util(&src_worker);
  cluster.master(1).cores().set_dispatch_util(&tgt_dispatch);
  cluster.master(1).cores().set_worker_util(&tgt_worker);

  std::vector<std::unique_ptr<ClientActor>> actors;
  for (int c = 0; c < kClients; c++) {
    ClientActorConfig actor_config;
    actor_config.ops_per_second = kOfferedOpsPerSecondReal / kDilation / kClients;
    actor_config.max_outstanding = 32;
    actor_config.stop_time = experiment_end;
    actors.push_back(
        std::make_unique<ClientActor>(kTable, &cluster.client(c % kClients), &workload,
                                      actor_config));
    actors.back()->set_read_latency(&reads);
    actors.back()->set_throughput(&all_ops);
    actors.back()->Start();
  }

  std::optional<MigrationStats> stats;
  cluster.AtSafePoint(static_cast<Tick>(static_cast<double>(kMigrateAt) * kDilation), [&] {
    RocksteadyOptions options;
    options.mode = mode;
    auto* manager = StartRocksteadyMigration(&cluster, kTable, kMid, ~0ull, 0, 1, options,
                                             [&](const MigrationStats& s) { stats = s; });
    manager->set_bytes_timeline(&migrated);
  });

  cluster.RunUntil(experiment_end);

  std::printf("\n--- %s ---\n", name);
  std::printf("%6s %12s %10s %10s | %8s %8s %8s %8s | %10s\n", "t(s)", "kOps/s", "med(us)",
              "p999(us)", "srcDisp", "tgtDisp", "srcWork", "tgtWork", "mig MB/s");
  for (int w = 0; w < kNumWindows; w++) {
    const auto i = static_cast<size_t>(w);
    std::printf("%6.1f %12.1f %10.1f %10.1f | %8.2f %8.2f %8.2f %8.2f | %10.1f\n",
                static_cast<double>(w) * 0.1,
                scale.PerSecond(static_cast<double>(all_ops.Count(i)), window_dilated) / 1e3,
                scale.Us(reads.Percentile(i, 0.5)), scale.Us(reads.Percentile(i, 0.999)),
                src_dispatch.ActiveCores(i), tgt_dispatch.ActiveCores(i),
                src_worker.ActiveCores(i), tgt_worker.ActiveCores(i),
                scale.PerSecond(static_cast<double>(migrated.Count(i)), window_dilated) / 1e6);
  }
  uint64_t failed = 0;
  uint64_t retry_later = 0;
  for (int c = 0; c < kClients; c++) {
    failed += actors[static_cast<size_t>(c)]->failed();
    retry_later += cluster.client(static_cast<size_t>(c)).retry_later_retries();
  }
  if (stats.has_value()) {
    std::printf("summary: transfer %.0f MB/s (to last pull); full migration incl. lazy "
                "re-replication %.0f MB/s\n",
                scale.MBps(stats->bytes_pulled, stats->last_pull_time - stats->start_time),
                scale.MBps(stats->bytes_pulled, stats->end_time - stats->start_time));
    std::printf("         migrated %.1f MB in %.2f s; "
                "%llu pulls, %llu PP batches (%llu records), rounds=%llu\n",
                static_cast<double>(stats->bytes_pulled) / 1e6,
                scale.Seconds(stats->end_time - stats->start_time),
                static_cast<unsigned long long>(stats->pulls_completed),
                static_cast<unsigned long long>(stats->priority_pull_batches),
                static_cast<unsigned long long>(stats->priority_pull_records),
                static_cast<unsigned long long>(stats->rounds));
  } else {
    std::printf("summary: migration did not complete within the window\n");
  }
  std::printf("client retry-later retries: %llu, failed (timed-out) ops: %llu\n",
              static_cast<unsigned long long>(retry_later),
              static_cast<unsigned long long>(failed));
  PrintNetworkFaultCounters(cluster);
}

// The three modes run in one process, so without care its peak RSS depends
// on what the allocator kept from earlier modes, not on the model. glibc
// raises its mmap threshold each time a large mmapped block is freed; a
// later mode's segments and hash tables then come from the heap, where
// freed memory stays mapped. Pin the threshold (glibc's initial 128 KiB) so
// every mode's large blocks are mmapped and unmapped on free.
void PinAllocatorBehavior() {
#if defined(__GLIBC__)
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif
}

}  // namespace
}  // namespace rocksteady

int main(int argc, char** argv) {
  using namespace rocksteady;
  PinAllocatorBehavior();
  std::printf("Figures 9/10/11: YCSB-B during live migration\n");
  (void)kDilation;
  std::printf("Workload: YCSB-B theta=0.99, %d clients, source at ~80%% dispatch load;\n",
              kClients);
  std::printf("migrating the upper half of a %.0f MB table starting at t=1 s.\n",
              static_cast<double>(kRecords) * 170 / 1e6);

  const char* only = argc > 1 ? argv[1] : "all";
  if (std::strcmp(only, "all") == 0 || std::strcmp(only, "rocksteady") == 0) {
    RunMode("(a) Rocksteady", MigrationMode::kRocksteady);
  }
  if (std::strcmp(only, "all") == 0 || std::strcmp(only, "no_priority_pulls") == 0) {
    RunMode("(b) No PriorityPulls", MigrationMode::kNoPriorityPulls);
  }
  if (std::strcmp(only, "all") == 0 || std::strcmp(only, "source_owns") == 0) {
    RunMode("(c) Source retains ownership (sync re-replication)",
            MigrationMode::kSourceOwns);
  }
  return 0;
}
