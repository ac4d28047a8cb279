// Ablations over Rocksteady's design knobs (§4.1 fixes them at: 8 hash-space
// partitions, 20 KB pulls, PriorityPull batches of 16, lazy re-replication).
// Each row migrates half a table under YCSB-B at ~80% source dispatch load
// and reports the transfer rate and the 99.9th percentile read latency over
// the migration interval.
//
// What to expect (and why the paper chose its defaults):
//  * partitions: 1 partition serializes pull/replay (RTT-bound); a few are
//    enough to hide round trips (§3.1.2); beyond ~2x workers adds nothing.
//  * pull budget: tiny pulls pay per-RPC overhead; huge pulls create long
//    non-preemptible source tasks that bump tail latency (§3.1.1).
//  * PP batch size: single-record batches multiply source RPCs (§3.3).
//  * lazy vs. sync re-replication: §4.2's 1.4x claim.
#include <cstdio>

#include "bench/migration_under_load.h"

namespace rocksteady {
namespace {

constexpr uint64_t kRecords = 1'000'000;
constexpr int kClients = 8;
constexpr double kOffered = 800'000.0 * 0.8;
constexpr Tick kMigrateAt = kSecond / 4;
constexpr Tick kEnd = 2 * kSecond;

// Runs one configuration and prints its row: transfer and total migration
// rates, then the mean per-window median and worst per-window 99.9th read
// latency across the 10 ms windows the migration spans.
void Run(const char* label, const RocksteadyOptions& options) {
  LatencyTimeline reads(kSecond / 100, 200);
  MigrationUnderLoad spec;
  spec.config = MakeConfig(4, kClients);
  spec.records = kRecords;
  spec.ops_per_second = kOffered / kClients;
  spec.stop_time = kEnd;
  spec.migrate_at = kMigrateAt;
  spec.options = options;
  spec.read_latency = &reads;
  MigrationUnderLoadRun run(spec);
  run.cluster().RunUntil(kEnd);

  const auto& stats = run.stats();
  if (!stats.has_value()) {
    std::printf("%-34s %s\n", label, UnfinishedMigration(kEnd).c_str());
    return;
  }
  const double transfer_mbps = static_cast<double>(stats->bytes_pulled) /
                               static_cast<double>(stats->last_pull_time - stats->start_time) *
                               1e3;
  const double total_mbps = static_cast<double>(stats->bytes_pulled) /
                            static_cast<double>(stats->end_time - stats->start_time) * 1e3;
  const size_t first = static_cast<size_t>(stats->start_time / reads.window());
  const size_t last = static_cast<size_t>(stats->end_time / reads.window());
  double p999 = 0;
  double p50 = 0;
  size_t windows = 0;
  for (size_t w = first; w <= last && w < reads.NumWindows(); w++) {
    if (reads.Count(w) == 0) {
      continue;
    }
    p999 = std::max(p999, static_cast<double>(reads.Percentile(w, 0.999)));
    p50 += static_cast<double>(reads.Percentile(w, 0.5));
    windows++;
  }
  std::printf("%-34s %14.0f %14.0f %10.1f %10.1f\n", label, transfer_mbps, total_mbps,
              windows == 0 ? 0 : p50 / static_cast<double>(windows) / 1e3, p999 / 1e3);
}

}  // namespace
}  // namespace rocksteady

int main() {
  using namespace rocksteady;
  std::printf("Migration design-knob ablations (YCSB-B at 80%% source dispatch load)\n");
  std::printf("=====================================================================\n");
  std::printf("%-34s %14s %14s %10s %10s\n", "configuration", "transfer MB/s", "total MB/s",
              "p50(us)", "p999(us)");

  Run("default (8 parts, 20KB, batch 16)", RocksteadyOptions{});
  for (size_t parts : {1u, 2u, 4u, 16u}) {
    RocksteadyOptions options;
    options.num_partitions = parts;
    char label[64];
    std::snprintf(label, sizeof(label), "partitions = %zu", parts);
    Run(label, options);
  }
  for (uint32_t budget : {4u * 1024, 64u * 1024, 256u * 1024}) {
    RocksteadyOptions options;
    options.pull_budget_bytes = budget;
    char label[64];
    std::snprintf(label, sizeof(label), "pull budget = %u KB", budget / 1024);
    Run(label, options);
  }
  for (size_t batch : {1u, 4u, 64u}) {
    RocksteadyOptions options;
    options.priority_pull_batch = batch;
    char label[64];
    std::snprintf(label, sizeof(label), "PP batch = %zu", batch);
    Run(label, options);
  }
  {
    RocksteadyOptions options;
    options.lazy_rereplication = false;
    Run("sync re-replication (ablation)", options);
  }
  {
    RocksteadyOptions options;
    options.max_replay_backlog = 1;
    Run("replay backlog = 1", options);
  }
  return 0;
}
