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
#include <optional>

#include "bench/experiment_common.h"
#include "src/migration/rocksteady_target.h"

namespace rocksteady {
namespace {

constexpr TableId kTable = 1;
constexpr KeyHash kMid = 1ull << 63;
constexpr uint64_t kRecords = 1'000'000;
constexpr int kClients = 8;
constexpr double kOffered = 800'000.0 * 0.8;
constexpr Tick kMigrateAt = kSecond / 4;
constexpr Tick kEnd = 2 * kSecond;

struct Row {
  double transfer_mbps = 0;
  double total_mbps = 0;
  double p999_us = 0;  // Over the migration interval.
  double p50_us = 0;
};

Row RunOne(const RocksteadyOptions& options) {
  Cluster cluster(MakeConfig(4, kClients, 1.0));
  EnableMigration(&cluster);
  cluster.CreateTable(kTable, 0);
  cluster.LoadTable(kTable, kRecords, 30, 100);

  YcsbConfig ycsb = YcsbConfig::WorkloadB();
  ycsb.num_records = kRecords;
  YcsbWorkload workload(ycsb);

  LatencyTimeline reads(kSecond / 100, 200);
  std::vector<std::unique_ptr<ClientActor>> actors;
  for (int c = 0; c < kClients; c++) {
    ClientActorConfig actor_config;
    actor_config.ops_per_second = kOffered / kClients;
    actor_config.max_outstanding = 32;
    actor_config.stop_time = kEnd;
    actors.push_back(
        std::make_unique<ClientActor>(kTable, &cluster.client(c), &workload, actor_config));
    actors.back()->set_read_latency(&reads);
    actors.back()->Start();
  }

  std::optional<MigrationStats> stats;
  cluster.AtSafePoint(kMigrateAt, [&] {
    StartRocksteadyMigration(&cluster, kTable, kMid, ~0ull, 0, 1, options,
                             [&](const MigrationStats& s) { stats = s; });
  });
  cluster.RunUntil(kEnd);

  Row row;
  if (stats.has_value()) {
    row.transfer_mbps = static_cast<double>(stats->bytes_pulled) /
                        static_cast<double>(stats->last_pull_time - stats->start_time) * 1e3;
    row.total_mbps = static_cast<double>(stats->bytes_pulled) /
                     static_cast<double>(stats->end_time - stats->start_time) * 1e3;
    // Latency over the migration interval: worst per-window 99.9th and mean
    // median across the 10 ms windows the migration spans.
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
    row.p999_us = p999 / 1e3;
    row.p50_us = windows == 0 ? 0 : p50 / static_cast<double>(windows) / 1e3;
  }
  return row;
}

void Print(const char* label, const Row& row) {
  std::printf("%-34s %14.0f %14.0f %10.1f %10.1f\n", label, row.transfer_mbps, row.total_mbps,
              row.p50_us, row.p999_us);
}

}  // namespace
}  // namespace rocksteady

int main() {
  using namespace rocksteady;
  std::printf("Migration design-knob ablations (YCSB-B at 80%% source dispatch load)\n");
  std::printf("=====================================================================\n");
  std::printf("%-34s %14s %14s %10s %10s\n", "configuration", "transfer MB/s", "total MB/s",
              "p50(us)", "p999(us)");

  {
    RocksteadyOptions options;
    Print("default (8 parts, 20KB, batch 16)", RunOne(options));
  }
  for (size_t parts : {1u, 2u, 4u, 16u}) {
    RocksteadyOptions options;
    options.num_partitions = parts;
    char label[64];
    std::snprintf(label, sizeof(label), "partitions = %zu", parts);
    Print(label, RunOne(options));
  }
  for (uint32_t budget : {4u * 1024, 64u * 1024, 256u * 1024}) {
    RocksteadyOptions options;
    options.pull_budget_bytes = budget;
    char label[64];
    std::snprintf(label, sizeof(label), "pull budget = %u KB", budget / 1024);
    Print(label, RunOne(options));
  }
  for (size_t batch : {1u, 4u, 64u}) {
    RocksteadyOptions options;
    options.priority_pull_batch = batch;
    char label[64];
    std::snprintf(label, sizeof(label), "PP batch = %zu", batch);
    Print(label, RunOne(options));
  }
  {
    RocksteadyOptions options;
    options.lazy_rereplication = false;
    Print("sync re-replication (ablation)", RunOne(options));
  }
  {
    RocksteadyOptions options;
    options.max_replay_backlog = 1;
    Print("replay backlog = 1", RunOne(options));
  }
  return 0;
}
