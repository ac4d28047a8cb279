// Figures 13 and 14: asynchronous batched PriorityPulls vs. the naive
// synchronous design, with background Pulls disabled.
//
// §4.4: async batched PriorityPulls restore the *median* latency almost
// immediately (the target serves hot records as soon as they arrive, no
// worker ever stalls); synchronous single-record PriorityPulls jitter the
// median and burn target workers that sit waiting for the source (visible
// as raised worker utilization, Figure 14b), though their 99.9th is a bit
// lower since responses go straight to waiting clients.
#include <cstdio>
#include <cstring>

#include "bench/migration_under_load.h"

namespace rocksteady {
namespace {

constexpr uint64_t kRecords = 2'000'000;
constexpr int kClients = 8;
constexpr double kOfferedOpsPerSecond = 800'000.0 * 0.8;
constexpr Tick kWindow = kSecond / 10;
constexpr int kNumWindows = 30;
constexpr Tick kMigrateAt = kSecond / 2;
constexpr Tick kEnd = static_cast<Tick>(kNumWindows) * kWindow;

void RunVariant(const char* name, bool sync_priority_pulls) {
  LatencyTimeline reads(kWindow, kNumWindows);
  UtilizationTimeline src_dispatch(kWindow, kNumWindows);
  UtilizationTimeline src_worker(kWindow, kNumWindows);
  UtilizationTimeline tgt_dispatch(kWindow, kNumWindows);
  UtilizationTimeline tgt_worker(kWindow, kNumWindows);

  MigrationUnderLoad spec;
  spec.config = MakeConfig(4, kClients);
  spec.records = kRecords;
  spec.ops_per_second = kOfferedOpsPerSecond / kClients;
  spec.stop_time = kEnd;
  spec.migrate_at = kMigrateAt;
  spec.options.background_pulls = false;  // §4.4: no background Pulls.
  spec.options.sync_priority_pulls = sync_priority_pulls;
  spec.source_dispatch = &src_dispatch;
  spec.source_worker = &src_worker;
  spec.target_dispatch = &tgt_dispatch;
  spec.target_worker = &tgt_worker;
  MigrationUnderLoadRun run(spec);
  run.cluster().RunUntil(kEnd);
  RecordLatencies(run.histories(), &reads);

  std::printf("\n--- %s ---\n", name);
  std::printf("%6s %10s %10s | %8s %8s %8s %8s\n", "t(s)", "med(us)", "p999(us)", "srcDisp",
              "tgtDisp", "srcWork", "tgtWork");
  for (int w = 0; w < kNumWindows; w++) {
    const auto i = static_cast<size_t>(w);
    std::printf("%6.1f %10.1f %10.1f | %8.2f %8.2f %8.2f %8.2f\n",
                static_cast<double>(w) * 0.1,
                static_cast<double>(reads.Percentile(i, 0.5)) / 1e3,
                static_cast<double>(reads.Percentile(i, 0.999)) / 1e3,
                src_dispatch.ActiveCores(i), tgt_dispatch.ActiveCores(i),
                src_worker.ActiveCores(i), tgt_worker.ActiveCores(i));
  }
  PrintNetworkFaultCounters(run.cluster());
}

}  // namespace
}  // namespace rocksteady

int main(int argc, char** argv) {
  using namespace rocksteady;
  std::printf("Figures 13/14: PriorityPull designs without background Pulls\n");
  std::printf("=============================================================\n");
  std::printf("YCSB-B theta=0.99; ownership transfers at t=0.5 s; no bulk Pulls, so all\n");
  std::printf("misses resolve via PriorityPulls only.\n");

  const char* only = argc > 1 ? argv[1] : "all";
  if (std::strcmp(only, "all") == 0 || std::strcmp(only, "async") == 0) {
    RunVariant("(a) Async and batched PriorityPulls", false);
  }
  if (std::strcmp(only, "all") == 0 || std::strcmp(only, "sync") == 0) {
    RunVariant("(b) Sync and single-record PriorityPulls", true);
  }
  return 0;
}
