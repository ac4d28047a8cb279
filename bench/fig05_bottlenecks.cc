// Figure 5: "Bottlenecks using log replay for migration."
//
// Migrates half of a table with RAMCloud's pre-existing migration, five
// times, each skipping one more phase of the protocol:
//   Full -> Skip Re-replication -> Skip Replay on Target -> Skip Tx to
//   Target -> Skip Copy for Tx
// and reports the per-window and steady-state migration rate of each.
//
// Paper result: ~130 / ~180 / ~600 / ~710 / ~1150 MB/s. The paper migrated
// 7 GB; this driver migrates a scaled-down tablet (rates are unaffected by
// the amount moved).
#include <cstdio>
#include <optional>

#include "bench/experiment_common.h"
#include "src/migration/ramcloud_migration.h"
#include "src/migration/rocksteady_target.h"

namespace rocksteady {
namespace {

constexpr TableId kTable = 1;
constexpr KeyHash kMid = 1ull << 63;
// ~730K records x ~170 B entries ~= 124 MB of log; ~62 MB migrates.
constexpr uint64_t kRecords = 730'000;

struct VariantResult {
  std::string name;
  double rate_mbps = 0;
  double seconds = 0;
  std::vector<double> timeline_mbps;
};

VariantResult RunVariant(const std::string& name, const BaselineMigrateOptions& options) {
  Cluster cluster(MakeConfig(4, 1, /*dilation=*/1.0));
  EnableMigration(&cluster);
  cluster.CreateTable(kTable, 0);
  cluster.LoadTable(kTable, kRecords, 30, 100);

  CounterTimeline bytes_moved(kSecond / 10, 600);
  std::optional<BaselineStats> stats;
  cluster.coordinator().SplitTablet(kTable, kMid);
  auto* migration = StartBaselineMigration(&cluster, kTable, kMid, ~0ull, 0, 1, options,
                                           [&](const BaselineStats& s) { stats = s; });
  migration->set_bytes_timeline(&bytes_moved);
  cluster.Run();

  VariantResult result;
  result.name = name;
  if (stats.has_value()) {
    result.rate_mbps = stats->RateMBps();
    result.seconds = stats->DurationSeconds();
  }
  for (size_t w = 0; w < bytes_moved.NumWindows(); w++) {
    if (bytes_moved.Count(w) == 0 && w > 2) {
      break;
    }
    result.timeline_mbps.push_back(bytes_moved.Rate(w) / 1e6);
  }
  return result;
}

}  // namespace
}  // namespace rocksteady

int main() {
  using namespace rocksteady;
  std::printf("Figure 5: Bottlenecks using log replay for migration\n");
  std::printf("=====================================================\n");
  std::printf("(baseline RAMCloud migration of ~62 MB, one knob removed per line;\n");
  std::printf(" paper: Full~130, SkipReRepl~180, SkipReplay~600, SkipTx~710, SkipCopy~1150 MB/s)\n\n");

  std::vector<VariantResult> results;
  results.push_back(RunVariant("Full", {}));
  results.push_back(RunVariant("Skip Re-replication", {.skip_rereplication = true}));
  results.push_back(
      RunVariant("Skip Replay on Target", {.skip_rereplication = true, .skip_replay = true}));
  results.push_back(RunVariant(
      "Skip Tx to Target", {.skip_rereplication = true, .skip_replay = true, .skip_tx = true}));
  results.push_back(RunVariant("Skip Copy for Tx", {.skip_rereplication = true,
                                                    .skip_replay = true,
                                                    .skip_tx = true,
                                                    .skip_copy = true}));

  std::printf("%-24s %14s %12s\n", "Part of Migration", "Rate (MB/s)", "Duration(s)");
  for (const auto& r : results) {
    std::printf("%-24s %14.0f %12.2f\n", r.name.c_str(), r.rate_mbps, r.seconds);
  }

  std::printf("\nMigration rate over time (MB/s per 100 ms window):\n");
  std::printf("%-8s", "t(s)");
  for (const auto& r : results) {
    std::printf(" %22s", r.name.substr(0, 22).c_str());
  }
  std::printf("\n");
  size_t max_windows = 0;
  for (const auto& r : results) {
    max_windows = std::max(max_windows, r.timeline_mbps.size());
  }
  for (size_t w = 0; w < max_windows; w++) {
    std::printf("%-8.1f", static_cast<double>(w) * 0.1);
    for (const auto& r : results) {
      if (w < r.timeline_mbps.size()) {
        std::printf(" %22.0f", r.timeline_mbps[w]);
      } else {
        std::printf(" %22s", "-");
      }
    }
    std::printf("\n");
  }
  return 0;
}
