// Overload figure: client-observed read latency on an already-saturated
// source while a tablet migrates away, with the adaptive pull-pacing
// controller on vs. off.
//
// The load is an open-loop square wave — 1 ms bursts past the source
// worker's saturation point, 3 ms troughs that let the queue drain — the
// shape that makes migration interference visible: each full-size unpaced
// Pull (and its replay on the target) occupies a worker non-preemptibly, and
// whatever remnant is still running when a burst lands delays that burst's
// entire queue. The paced run reads the source-load signals piggybacked on
// pull replies and shrinks its window/budget to the floor while bursts keep
// arriving, then recovers once the load clears.
//
// Output: per-window read median/p99.9 and pull bytes for both modes, then
// a summary with migration duration, AIMD backoffs, admission-control shed
// counts, and the post-migration-start tail comparison.
#include <cstdio>
#include <optional>
#include <vector>

#include "bench/client_history.h"
#include "bench/experiment_common.h"
#include "src/migration/rocksteady_target.h"

namespace rocksteady {
namespace {

constexpr TableId kTable = 1;
// Migrate the top quarter of the hash space: the source keeps ~3/4 of the
// client load, so its bursts stay past saturation for the whole run.
constexpr KeyHash kSliceStart = 0xC000'0000'0000'0000ull;
constexpr uint64_t kRecords = 12'000;
constexpr Tick kBurstPhase = 1 * kMillisecond;
constexpr Tick kTroughPhase = 3 * kMillisecond;
constexpr Tick kBurstGap = 12 * kMicrosecond;    // ~1.7x the ~21 us/op service.
constexpr Tick kTroughGap = 100 * kMicrosecond;  // ~0.2x: queues drain fully.
constexpr Tick kMigrateAt = 6 * kMillisecond;    // Mid-trough, queue drained.
constexpr Tick kOpsStop = 40 * kMillisecond;
constexpr Tick kWindow = 2 * kMillisecond;
constexpr int kNumWindows = 24;
constexpr uint64_t kSeed = 42;

struct RunResult {
  LatencyTimeline reads{kWindow, kNumWindows};
  CounterTimeline pulled{kWindow, kNumWindows};
  std::vector<Tick> sampled;  // Read latencies issued after kMigrateAt + 2 ms.
  std::optional<MigrationStats> stats;
  uint64_t client_sheds = 0;
  uint64_t retry_later = 0;
};

RunResult RunMode(bool pacing) {
  RunResult result;

  ClusterConfig config;
  config.num_masters = 4;
  config.num_clients = 2;
  config.seed = kSeed;
  config.master.num_workers = 1;
  config.master.hash_table_log2_buckets = 14;
  config.master.segment_size = 64 * 1024;
  // Worker-bound ops (one worker saturates at a modest rate, dispatch keeps
  // headroom) and record-bound pulls (an unpaced 32 KB pull occupies the
  // worker ~1 ms — the non-preemptible remnant bursts queue behind).
  config.costs.read_op_ns = 20'000;
  config.costs.write_op_ns = 24'000;
  config.costs.pull_per_record_ns = 4'000;

  Cluster cluster(config);
  EnableMigration(&cluster);
  cluster.CreateTable(kTable, 0);
  cluster.LoadTable(kTable, kRecords, 30, 100);

  RocksteadyOptions options;
  options.adaptive_pacing = pacing;
  options.pull_budget_bytes = 32 * 1024;
  options.num_partitions = 2;

  cluster.AtSafePoint(kMigrateAt, [&] {
    auto* manager =
        StartRocksteadyMigration(&cluster, kTable, kSliceStart, ~0ull, 0, 1, options,
                                 [&](const MigrationStats& s) { result.stats = s; });
    manager->set_bytes_timeline(&result.pulled);
  });

  const ClientHistories histories = StartClientHistories(
      cluster, kTable, kOpsStop, [] { return YcsbBChoice(kRecords); }, [](Tick now) {
        return now % (kBurstPhase + kTroughPhase) < kBurstPhase ? kBurstGap : kTroughGap;
      });
  cluster.Run();

  ForEachOp(histories, [&result](const OpRecord& op) {
    if (!op.is_read || op.status != Status::kOk) {
      return;
    }
    result.reads.Record(op.completed, op.completed - op.issued);
    if (op.issued >= kMigrateAt + 2 * kMillisecond) {
      result.sampled.push_back(op.completed - op.issued);
    }
  });
  result.client_sheds = cluster.master(0).client_sheds();
  for (size_t c = 0; c < cluster.num_clients(); c++) {
    result.retry_later += cluster.client(c).retry_later_retries();
  }
  return result;
}

void PrintRun(const char* name, const RunResult& r) {
  std::printf("\n--- %s ---\n", name);
  std::printf("%7s %8s %9s %10s %10s\n", "t(ms)", "reads", "med(us)", "p999(us)", "pull kB/s");
  for (int w = 0; w < kNumWindows; w++) {
    const auto i = static_cast<size_t>(w);
    std::printf("%7.0f %8llu %9.1f %10.1f %10.0f\n",
                static_cast<double>(r.reads.WindowStart(i)) / 1e6,
                static_cast<unsigned long long>(r.reads.Count(i)),
                ToUs(r.reads.Percentile(i, 0.5)), ToUs(r.reads.Percentile(i, 0.999)),
                PerSecond(static_cast<double>(r.pulled.Count(i)), kWindow) / 1e3);
  }
  if (r.stats.has_value()) {
    const MigrationStats& s = *r.stats;
    std::printf("summary: migration %.2f ms (%llu pulls, %.0f kB); AIMD backoffs %llu; "
                "pulls shed by source %llu; clients shed %llu; kRetryLater retries %llu\n",
                s.DurationSeconds() * 1e3, static_cast<unsigned long long>(s.pulls_completed),
                static_cast<double>(s.bytes_pulled) / 1e3,
                static_cast<unsigned long long>(s.pacing_backoffs),
                static_cast<unsigned long long>(s.pull_rejections),
                static_cast<unsigned long long>(r.client_sheds),
                static_cast<unsigned long long>(r.retry_later));
  }
}

}  // namespace
}  // namespace rocksteady

int main() {
  using namespace rocksteady;
  std::printf("Overload pacing figure: square-wave YCSB-B past source saturation\n"
              "(1 ms bursts @ ~1.7x, 3 ms troughs @ ~0.2x), top-quarter migration at "
              "t=%.0f ms.\n", static_cast<double>(kMigrateAt) / 1e6);

  RunResult paced = RunMode(/*pacing=*/true);
  RunResult unpaced = RunMode(/*pacing=*/false);
  PrintRun("adaptive pacing ON", paced);
  PrintRun("adaptive pacing OFF", unpaced);

  std::printf("\nsteady-state read tail (reads issued after t=%.0f ms):\n",
              static_cast<double>(kMigrateAt + 2 * kMillisecond) / 1e6);
  std::printf("%18s %10s %10s %10s\n", "", "p50(us)", "p99(us)", "p999(us)");
  std::printf("%18s %10.1f %10.1f %10.1f\n", "pacing ON",
              static_cast<double>(Quantile(paced.sampled, 0.5)) / 1e3,
              static_cast<double>(Quantile(paced.sampled, 0.99)) / 1e3,
              static_cast<double>(Quantile(paced.sampled, 0.999)) / 1e3);
  std::printf("%18s %10.1f %10.1f %10.1f\n", "pacing OFF",
              static_cast<double>(Quantile(unpaced.sampled, 0.5)) / 1e3,
              static_cast<double>(Quantile(unpaced.sampled, 0.99)) / 1e3,
              static_cast<double>(Quantile(unpaced.sampled, 0.999)) / 1e3);
  return 0;
}
