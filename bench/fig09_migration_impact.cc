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

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "bench/migration_under_load.h"

namespace rocksteady {
namespace {

constexpr uint64_t kRecords = 3'500'000;  // ~600 MB of log; ~300 MB migrates.
constexpr int kClients = 8;
// 80% dispatch load on the source (its capacity is ~1 op/us).
constexpr double kOfferedOpsPerSecond = 800'000.0 * 0.8;
constexpr Tick kWindow = kSecond / 10;
constexpr int kNumWindows = 40;
constexpr Tick kMigrateAt = kSecond;
constexpr Tick kEnd = static_cast<Tick>(kNumWindows) * kWindow;

void RunMode(const char* name, MigrationMode mode) {
  LatencyTimeline reads(kWindow, kNumWindows);
  LatencyTimeline all_ops(kWindow, kNumWindows);
  UtilizationTimeline src_dispatch(kWindow, kNumWindows);
  UtilizationTimeline src_worker(kWindow, kNumWindows);
  UtilizationTimeline tgt_dispatch(kWindow, kNumWindows);
  UtilizationTimeline tgt_worker(kWindow, kNumWindows);
  CounterTimeline migrated(kWindow, kNumWindows);

  MigrationUnderLoad spec;
  spec.config = MakeConfig(4, kClients);
  spec.records = kRecords;
  spec.ops_per_second = kOfferedOpsPerSecond / kClients;
  spec.stop_time = kEnd;
  spec.migrate_at = kMigrateAt;
  spec.options.mode = mode;
  spec.migrated_bytes = &migrated;
  spec.source_dispatch = &src_dispatch;
  spec.source_worker = &src_worker;
  spec.target_dispatch = &tgt_dispatch;
  spec.target_worker = &tgt_worker;
  MigrationUnderLoadRun run(spec);
  Cluster& cluster = run.cluster();
  cluster.RunUntil(kEnd);
  RecordLatencies(run.histories(), &reads, &all_ops);

  std::printf("\n--- %s ---\n", name);
  std::printf("%6s %12s %10s %10s | %8s %8s %8s %8s | %10s\n", "t(s)", "kOps/s", "med(us)",
              "p999(us)", "srcDisp", "tgtDisp", "srcWork", "tgtWork", "mig MB/s");
  for (int w = 0; w < kNumWindows; w++) {
    const auto i = static_cast<size_t>(w);
    std::printf("%6.1f %12.1f %10.1f %10.1f | %8.2f %8.2f %8.2f %8.2f | %10.1f\n",
                static_cast<double>(w) * 0.1,
                PerSecond(static_cast<double>(all_ops.Count(i)), kWindow) / 1e3,
                ToUs(reads.Percentile(i, 0.5)), ToUs(reads.Percentile(i, 0.999)),
                src_dispatch.ActiveCores(i), tgt_dispatch.ActiveCores(i),
                src_worker.ActiveCores(i), tgt_worker.ActiveCores(i),
                PerSecond(static_cast<double>(migrated.Count(i)), kWindow) / 1e6);
  }
  uint64_t retry_later = 0;
  for (int c = 0; c < kClients; c++) {
    retry_later += cluster.client(static_cast<size_t>(c)).retry_later_retries();
  }
  if (const auto& stats = run.stats(); stats.has_value()) {
    std::printf("summary: transfer %.0f MB/s (to last pull); full migration incl. lazy "
                "re-replication %.0f MB/s\n",
                MBps(stats->bytes_pulled, stats->last_pull_time - stats->start_time),
                MBps(stats->bytes_pulled, stats->end_time - stats->start_time));
    std::printf("         migrated %.1f MB in %.2f s; "
                "%llu pulls, %llu PP batches (%llu records), rounds=%llu\n",
                static_cast<double>(stats->bytes_pulled) / 1e6,
                ToSeconds(stats->end_time - stats->start_time),
                static_cast<unsigned long long>(stats->pulls_completed),
                static_cast<unsigned long long>(stats->priority_pull_batches),
                static_cast<unsigned long long>(stats->priority_pull_records),
                static_cast<unsigned long long>(stats->rounds));
  } else {
    std::printf("summary: migration %s\n", UnfinishedMigration(kEnd).c_str());
  }
  std::printf("client retry-later retries: %llu, failed (timed-out) ops: %llu\n",
              static_cast<unsigned long long>(retry_later),
              static_cast<unsigned long long>(CountOps(run.histories()).failed()));
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
