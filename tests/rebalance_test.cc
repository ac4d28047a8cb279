// Tests for the autonomous rebalancer (src/rebalance): load telemetry, the
// piggyback transport, checked tablet splits (including crash convergence),
// the planner policy loop, and a chaos suite asserting the planner + faults
// + splits never lose an acked write and replay bit-identically.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench/client_history.h"
#include "bench/scenario_harness.h"
#include "src/cluster/cluster.h"
#include "src/common/audit.h"
#include "src/common/hash.h"
#include "src/migration/rocksteady_target.h"
#include "src/rebalance/load_stats.h"
#include "src/rebalance/planner.h"
#include "src/rebalance/telemetry.h"

namespace rocksteady {
namespace {

constexpr TableId kTable = 1;
constexpr KeyHash kQuarter = KeyHash{1} << 62;
constexpr KeyHash kMid = KeyHash{1} << 63;

// ---------------------------------------------------------- Load tracker.

TEST(TabletLoadTrackerTest, SumsAndExpiresWindows) {
  TabletLoadTracker tracker;
  const Tick t0 = kMillisecond;
  tracker.Record(t0, kTable, 0, /*is_write=*/false, 100);
  tracker.Record(t0, kTable, kMid, /*is_write=*/true, 50);
  tracker.Record(t0, kTable, ~KeyHash{0}, /*is_write=*/false, 10);

  RangeLoad all = tracker.Sum(t0, kTable, 0, ~KeyHash{0});
  EXPECT_EQ(all.reads, 2u);
  EXPECT_EQ(all.writes, 1u);
  EXPECT_EQ(all.bytes, 160u);

  // Range clipping: only the write landed in the upper half's first bin.
  RangeLoad upper = tracker.Sum(t0, kTable, kMid, ~KeyHash{0});
  EXPECT_EQ(upper.writes, 1u);
  EXPECT_EQ(upper.reads, 1u);  // The ~0 read.

  // Other tables are invisible.
  EXPECT_EQ(tracker.Sum(t0, kTable + 1, 0, ~KeyHash{0}).ops(), 0u);

  // Everything ages out after the full window passes.
  const Tick later = t0 + tracker.span() + 2 * kTelemetryBucketSpanNs;
  EXPECT_EQ(tracker.Sum(later, kTable, 0, ~KeyHash{0}).ops(), 0u);
}

TEST(TabletLoadTrackerTest, BinHistogramLocalizesHotSpot) {
  TabletLoadTracker tracker;
  const Tick t0 = kMillisecond;
  // 100 ops in bin 3, 10 in bin 40.
  for (int i = 0; i < 100; i++) {
    tracker.Record(t0, kTable, (KeyHash{3} << kHotspotBinShift) + 17, false, 1);
  }
  for (int i = 0; i < 10; i++) {
    tracker.Record(t0, kTable, (KeyHash{40} << kHotspotBinShift) + 5, false, 1);
  }
  const auto ops = tracker.BinOps(t0, kTable, 0, ~KeyHash{0});
  EXPECT_EQ(ops[3], 100u);
  EXPECT_EQ(ops[40], 10u);
  EXPECT_EQ(ops[0], 0u);
  // Clipped to the lower half, bin 40 disappears.
  const auto lower = tracker.BinOps(t0, kTable, 0, kMid - 1);
  EXPECT_EQ(lower[3], 100u);
  EXPECT_EQ(lower[40], 0u);
}

TEST(TabletLoadTrackerTest, ProratesPartialBins) {
  TabletLoadTracker tracker;
  const Tick t0 = kMillisecond;
  for (int i = 0; i < 1000; i++) {
    tracker.Record(t0, kTable, KeyHash{7}, false, 1);  // All in bin 0.
  }
  // A range covering exactly half of bin 0 is credited ~half the ops.
  const RangeLoad half = tracker.Sum(t0, kTable, 0, kHotspotBinSpan / 2 - 1);
  EXPECT_EQ(half.reads, 500u);
}

// ----------------------------------------------------------- Wire codec.

TEST(TelemetryCodecTest, RoundTripsAndRejectsTruncation) {
  LoadTelemetryFrame frame;
  frame.server = 3;
  frame.sampled_at = 123456789;
  frame.recent_p999_ns = 250'000;
  frame.dispatch_backlog_ns = 10'000;
  frame.client_queue_depth = 7;
  frame.memory_in_use = 1 << 20;
  frame.memory_budget_bytes = 1 << 24;
  TabletLoadSample t;
  t.table = kTable;
  t.start_hash = kQuarter;
  t.end_hash = kMid - 1;
  t.reads_per_sec = 90'000;
  t.writes_per_sec = 10'000;
  t.bytes_per_sec = 12'000'000;
  t.resident_bytes = 42 << 10;
  t.bin_ops[17] = 999;
  t.bin_ops[63] = 1;
  frame.tablets.push_back(t);

  const std::vector<uint8_t> bytes = EncodeLoadFrame(frame);
  LoadTelemetryFrame decoded;
  ASSERT_TRUE(DecodeLoadFrame(bytes, &decoded));
  EXPECT_EQ(decoded.server, frame.server);
  EXPECT_EQ(decoded.sampled_at, frame.sampled_at);
  EXPECT_EQ(decoded.recent_p999_ns, frame.recent_p999_ns);
  EXPECT_EQ(decoded.client_queue_depth, frame.client_queue_depth);
  EXPECT_EQ(decoded.memory_budget_bytes, frame.memory_budget_bytes);
  ASSERT_EQ(decoded.tablets.size(), 1u);
  EXPECT_EQ(decoded.tablets[0].start_hash, kQuarter);
  EXPECT_EQ(decoded.tablets[0].reads_per_sec, 90'000u);
  EXPECT_EQ(decoded.tablets[0].bin_ops[17], 999u);
  EXPECT_EQ(decoded.tablets[0].bin_ops[63], 1u);
  EXPECT_EQ(decoded.tablets[0].bin_ops[0], 0u);

  for (size_t cut : {size_t{1}, bytes.size() / 2, bytes.size() - 1}) {
    LoadTelemetryFrame junk;
    EXPECT_FALSE(DecodeLoadFrame(
        std::vector<uint8_t>(bytes.begin(), bytes.begin() + static_cast<long>(cut)), &junk));
  }
}

// ------------------------------------------------- Piggybacked transport.

ClusterConfig SmallConfig(uint64_t seed = 42) {
  ClusterConfig config;
  config.num_masters = 4;
  config.num_clients = 2;
  config.seed = seed;
  config.master.hash_table_log2_buckets = 14;
  config.master.segment_size = 64 * 1024;
  return config;
}

TEST(TelemetryTransportTest, FramesReachPlannerViaPingReplies) {
  Cluster cluster(SmallConfig());
  cluster.CreateTable(kTable, 0);
  cluster.LoadTable(kTable, 500, 30, 100);
  ClusterTelemetry telemetry(&cluster);
  RebalancePlanner planner(&cluster);  // Not started: just collects frames.

  // Drive some client traffic so the frames carry real rates.
  // Keep traffic flowing through the whole run so the (16 ms) sliding
  // window is non-empty whenever a ping samples a frame.
  for (int i = 0; i < 2'200; i++) {
    const Tick at = kMillisecond + static_cast<Tick>(i) * 10 * kMicrosecond;
    cluster.client(0).sim().At(at, [&cluster, i] {
      cluster.client(0).Read(kTable, Cluster::MakeKey(static_cast<uint64_t>(i % 500), 30),
                             [](Status, const std::string&) {});
    });
  }
  cluster.coordinator().StartFailureDetector();
  cluster.RunUntil(25 * kMillisecond);
  cluster.coordinator().StopFailureDetector();
  cluster.Run();

  // Every master's frame arrived by piggyback on ping replies.
  for (size_t i = 0; i < cluster.num_masters(); i++) {
    const auto& frame = planner.frame(cluster.master(i).id());
    ASSERT_TRUE(frame.has_value()) << "master " << i;
    EXPECT_EQ(frame->server, cluster.master(i).id());
    EXPECT_GT(frame->sampled_at, 0u);
  }
  // The loaded master's frame shows its (only) tablet with read traffic.
  const auto& loaded = planner.frame(cluster.master(0).id());
  ASSERT_EQ(loaded->tablets.size(), 1u);
  EXPECT_GT(loaded->tablets[0].reads_per_sec, 0u);
  EXPECT_GT(loaded->tablets[0].resident_bytes, 0u);
}

// ------------------------------------------------------- Checked splits.

TEST(CheckedSplitTest, RefusesNarrowEmptyAndUnknownSplits) {
  Cluster cluster(SmallConfig());
  cluster.CreateTable(kTable, 0);
  Coordinator& coordinator = cluster.coordinator();

  // Lower half narrower than the minimum span.
  EXPECT_EQ(coordinator.SplitTabletChecked(kTable, Coordinator::kMinSplitSpan / 2),
            Status::kInvalidState);
  // A split at the range start would create an empty tablet.
  EXPECT_EQ(coordinator.SplitTabletChecked(kTable, 0), Status::kInvalidState);
  // Unknown table.
  EXPECT_EQ(coordinator.SplitTabletChecked(kTable + 9, kMid), Status::kTableNotFound);
  EXPECT_EQ(coordinator.splits_refused(), 3u);
  EXPECT_EQ(coordinator.splits_performed(), 0u);

  // A legal split works and both layers converge once events drain.
  EXPECT_EQ(coordinator.SplitTabletChecked(kTable, kMid), Status::kOk);
  cluster.Run();
  EXPECT_EQ(coordinator.splits_performed(), 1u);
  const Tablet* upper = cluster.master(0).objects().tablets().Find(kTable, kMid);
  ASSERT_NE(upper, nullptr);
  EXPECT_EQ(upper->start_hash, kMid);
  AuditReport report;
  coordinator.AuditInvariants(&report);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(CheckedSplitTest, RefusesSplitUnderInFlightMigration) {
  Cluster cluster(SmallConfig());
  EnableMigration(&cluster);
  cluster.CreateTable(kTable, 0);
  cluster.LoadTable(kTable, 2'000, 30, 100);

  std::optional<MigrationStats> stats;
  cluster.AtSafePoint(kMillisecond, [&] {
    StartRocksteadyMigration(&cluster, kTable, kMid, ~0ull, 0, 1, RocksteadyOptions{},
                             [&](const MigrationStats& s) { stats = s; });
  });
  // Let the migration get under way (ownership moved, dependency live).
  cluster.RunUntil(kMillisecond + 500 * kMicrosecond);
  ASSERT_TRUE(cluster.coordinator().FindDependencyBySource(cluster.master(0).id()).has_value());

  // Splitting the migrating range is refused while the dependency is live...
  EXPECT_EQ(cluster.coordinator().SplitTabletChecked(kTable, kMid + kQuarter),
            Status::kRetryLater);
  // ...but the source's untouched lower half splits fine.
  EXPECT_EQ(cluster.coordinator().SplitTabletChecked(kTable, kQuarter), Status::kOk);

  cluster.Run();
  ASSERT_TRUE(stats.has_value());
  // Once committed, the formerly migrating range splits normally again.
  EXPECT_EQ(cluster.coordinator().SplitTabletChecked(kTable, kMid + kQuarter), Status::kOk);
  cluster.Run();
  AuditReport report;
  cluster.coordinator().AuditInvariants(&report);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(CheckedSplitTest, CoordinatorCrashMidSplitConvergesOnRestart) {
  Cluster cluster(SmallConfig());
  cluster.CreateTable(kTable, 0);
  Coordinator& coordinator = cluster.coordinator();

  // The map commits synchronously; the owner's mirror is deferred. Crash
  // the coordinator before the mirror lands: the owner is stranded unsplit.
  EXPECT_EQ(coordinator.SplitTabletChecked(kTable, kMid), Status::kOk);
  coordinator.Crash();
  cluster.Run();
  EXPECT_EQ(cluster.master(0).objects().tablets().tablets().size(), 1u);

  // Restart reconciles every map boundary back onto the owners.
  coordinator.Restart();
  const Tablet* upper = cluster.master(0).objects().tablets().Find(kTable, kMid);
  ASSERT_NE(upper, nullptr);
  EXPECT_EQ(upper->start_hash, kMid);
  AuditReport report;
  coordinator.AuditInvariants(&report);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

// ------------------------------------------------------ Planner policy.

// Builds a frame claiming `server` serves `tablets` (ops spread uniformly
// over each tablet's bins).
LoadTelemetryFrame MakeFrame(Cluster& cluster, ServerId server,
                             std::vector<TabletLoadSample> tablets) {
  LoadTelemetryFrame frame;
  frame.server = server;
  frame.sampled_at = cluster.now();
  frame.tablets = std::move(tablets);
  return frame;
}

TabletLoadSample MakeSample(KeyHash start, KeyHash end, uint64_t reads_per_sec) {
  TabletLoadSample t;
  t.table = kTable;
  t.start_hash = start;
  t.end_hash = end;
  t.reads_per_sec = reads_per_sec;
  // Uniform histogram over the covered bins.
  const size_t first = static_cast<size_t>(start >> kHotspotBinShift);
  const size_t last = static_cast<size_t>(end >> kHotspotBinShift);
  for (size_t b = first; b <= last; b++) {
    t.bin_ops[b] = reads_per_sec / (last - first + 1);
  }
  return t;
}

RebalancerOptions TestPlannerOptions() {
  RebalancerOptions options;
  options.min_imbalance_ops_per_sec = 1'000;
  return options;
}

TEST(PlannerTest, HysteresisThenMigratesBestFitTablet) {
  Cluster cluster(SmallConfig());
  EnableMigration(&cluster);
  cluster.CreateTable(kTable, 0);
  cluster.coordinator().SplitTablet(kTable, kMid);
  cluster.LoadTable(kTable, 1'000, 30, 100);
  RebalancePlanner planner(&cluster, TestPlannerOptions());

  const ServerId hot = cluster.master(0).id();
  auto feed = [&] {
    planner.InjectFrame(MakeFrame(cluster, hot,
                                  {MakeSample(0, kMid - 1, 30'000),
                                   MakeSample(kMid, ~KeyHash{0}, 8'000)}));
    for (size_t i = 1; i < cluster.num_masters(); i++) {
      planner.InjectFrame(MakeFrame(cluster, cluster.master(i).id(), {}));
    }
  };

  feed();
  planner.PlanOnce();
  // Round one only arms: hysteresis demands persistence.
  EXPECT_EQ(planner.state(), RebalancePlanner::State::kArming);
  EXPECT_EQ(planner.stats().migrations_started, 0u);

  planner.PlanOnce();
  EXPECT_EQ(planner.state(), RebalancePlanner::State::kMigrating);
  EXPECT_EQ(planner.stats().migrations_started, 1u);
  cluster.Run();
  EXPECT_EQ(planner.stats().migrations_completed, 1u);
  EXPECT_EQ(planner.state(), RebalancePlanner::State::kCooldown);
  // Best fit under the cap: the 8k tablet moved (desired ≈ min(max-mean,
  // mean) ≈ 9.5k; the 30k tablet overshoots), to the least-loaded target.
  EXPECT_NE(cluster.coordinator().OwnerOf(kTable, kMid), hot);
  EXPECT_EQ(cluster.coordinator().OwnerOf(kTable, 0), hot);
  AuditReport report;
  cluster.coordinator().AuditInvariants(&report);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(PlannerTest, BalancedOrStaleClusterNeverActs) {
  Cluster cluster(SmallConfig());
  EnableMigration(&cluster);
  cluster.CreateTable(kTable, 0);
  RebalancePlanner planner(&cluster, TestPlannerOptions());

  // Balanced: equal load everywhere.
  for (size_t i = 0; i < cluster.num_masters(); i++) {
    planner.InjectFrame(MakeFrame(cluster, cluster.master(i).id(),
                                  {MakeSample(0, ~KeyHash{0}, 10'000)}));
  }
  planner.PlanOnce();
  EXPECT_EQ(planner.stats().skipped_balanced, 1u);
  EXPECT_EQ(planner.state(), RebalancePlanner::State::kIdle);

  // Stale: frames exist but are too old to act on.
  cluster.RunUntil(cluster.now() + 200 * kMillisecond);
  planner.PlanOnce();
  EXPECT_EQ(planner.stats().skipped_stale, 1u);
  EXPECT_EQ(planner.stats().migrations_started, 0u);
}

TEST(PlannerTest, NeverMigratesIntoOverloadedOrBudgetPressedTarget) {
  Cluster cluster(SmallConfig());
  EnableMigration(&cluster);
  cluster.CreateTable(kTable, 0);
  cluster.coordinator().SplitTablet(kTable, kMid);
  RebalancerOptions options = TestPlannerOptions();
  options.hysteresis_rounds = 1;
  RebalancePlanner planner(&cluster, options);

  const ServerId hot = cluster.master(0).id();
  auto hot_frame = [&] {
    return MakeFrame(cluster, hot,
                     {MakeSample(0, kMid - 1, 30'000), MakeSample(kMid, ~KeyHash{0}, 8'000)});
  };

  // Every prospective target is past an overload ceiling.
  planner.InjectFrame(hot_frame());
  for (size_t i = 1; i < cluster.num_masters(); i++) {
    LoadTelemetryFrame frame = MakeFrame(cluster, cluster.master(i).id(), {});
    frame.recent_p999_ns = kTargetP999CeilingNs + 1;
    planner.InjectFrame(frame);
  }
  planner.PlanOnce();
  EXPECT_EQ(planner.stats().skipped_no_target, 1u);
  EXPECT_EQ(planner.stats().migrations_started, 0u);

  // Every prospective target would blow its memory budget.
  planner.InjectFrame(hot_frame());
  for (size_t i = 1; i < cluster.num_masters(); i++) {
    LoadTelemetryFrame frame = MakeFrame(cluster, cluster.master(i).id(), {});
    frame.memory_budget_bytes = 1 << 20;
    frame.memory_in_use = 1 << 20;  // No headroom at all.
    planner.InjectFrame(frame);
  }
  planner.PlanOnce();
  EXPECT_EQ(planner.stats().skipped_no_target, 2u);
  EXPECT_EQ(planner.stats().migrations_started, 0u);

  // Relieve one target and the same imbalance becomes actionable.
  planner.InjectFrame(hot_frame());
  planner.InjectFrame(MakeFrame(cluster, cluster.master(2).id(), {}));
  planner.PlanOnce();
  EXPECT_EQ(planner.stats().migrations_started, 1u);
  cluster.Run();
  EXPECT_EQ(cluster.coordinator().OwnerOf(kTable, kMid), cluster.master(2).id());
}

TEST(PlannerTest, SplitsHotTabletAtHistogramBoundary) {
  Cluster cluster(SmallConfig());
  EnableMigration(&cluster);
  cluster.CreateTable(kTable, 0);
  cluster.LoadTable(kTable, 1'000, 30, 100);
  RebalancerOptions options = TestPlannerOptions();
  options.hysteresis_rounds = 1;
  RebalancePlanner planner(&cluster, options);

  // One tablet carries everything: any move overshoots the deficit, so the
  // planner must carve it first.
  planner.InjectFrame(MakeFrame(cluster, cluster.master(0).id(),
                                {MakeSample(0, ~KeyHash{0}, 40'000)}));
  for (size_t i = 1; i < cluster.num_masters(); i++) {
    planner.InjectFrame(MakeFrame(cluster, cluster.master(i).id(), {}));
  }
  planner.PlanOnce();
  EXPECT_EQ(planner.stats().splits_requested, 1u);
  EXPECT_EQ(planner.stats().migrations_started, 0u);
  EXPECT_EQ(cluster.coordinator().splits_performed(), 1u);
  cluster.Run();

  // The split landed where the uniform histogram crosses the desired move
  // (~desired/total of the way in, on a bin boundary) — and both layers
  // still tile.
  const auto tablets = cluster.coordinator().GetTableConfig(kTable);
  EXPECT_EQ(tablets.size(), 2u);
  AuditReport report;
  cluster.coordinator().AuditInvariants(&report);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

// --------------------------------------------- Cross-layer audit (tiling).

TEST(RebalanceAuditTest, CoverageAuditCatchesOwnerWithoutLocalTablet) {
  Cluster cluster(SmallConfig());
  cluster.CreateTable(kTable, 0);
  cluster.coordinator().SplitTablet(kTable, kMid);
  AuditReport clean;
  cluster.coordinator().AuditInvariants(&clean);
  EXPECT_TRUE(clean.ok()) << clean.Summary();

  // Simulate a lost mirror: the owner drops its local upper-half tablet
  // while the map still assigns it. The cross-layer audit must notice.
  cluster.master(0).objects().tablets().Remove(kTable, kMid, ~KeyHash{0});
  AuditReport report;
  cluster.coordinator().AuditInvariants(&report);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.Summary().find("no local tablet"), std::string::npos) << report.Summary();
}

// ----------------------------------------------------- Rebalancer chaos.

// A shifting hot spot under faults: 4 masters each own a quarter of the
// table; 80% of the traffic hammers master 0's quarter while the planner,
// telemetry, splits, and Rocksteady migrations run — through injected
// drops/dups/delays and a crash-recovery of a bystander master. Asserts no
// acked write is ever lost, all audits pass, and the run replays
// bit-identically at 4 threaded lanes.
constexpr uint64_t kChaosRecords = 4'000;
constexpr Tick kChaosOpGap = 10 * kMicrosecond;  // ~100k ops/s offered.

ScenarioSpec RebalanceChaosSpec(uint64_t seed) {
  // Fault schedule: crash-and-recover a bystander master mid-run.
  Random schedule(seed ^ 0x9e3779b97f4a7c15ull);
  const size_t victim = 2 + schedule.Uniform(2);
  const Tick crash_at = 8 * kMillisecond + schedule.Uniform(10 * kMillisecond);

  // The hot spot aims at (about) master 0's quarter.
  const std::vector<std::string> all_keys = LoadedKeys(kChaosRecords);
  std::vector<std::string> hot_pool;
  for (const std::string& key : all_keys) {
    if (HashKey(kScenarioTable, key) < kQuarter) {
      hot_pool.push_back(key);
    }
  }

  ScenarioSpec s;
  s.name = "rebalance_chaos";
  s.fabric = LossyFabric{};
  s.records = kChaosRecords;
  // 80%-hot / 20%-uniform, 5% writes, from every client.
  s.choose = [all = std::make_shared<const std::vector<std::string>>(all_keys),
              hot = std::make_shared<const std::vector<std::string>>(std::move(hot_pool))](
                 Random& rng, Tick) {
    const auto& pool = rng.NextDouble() < 0.8 ? *hot : *all;
    std::string key = pool[rng.Uniform(pool.size())];
    return YcsbWorkload::Op{.is_read = rng.NextDouble() < 0.95, .key = std::move(key)};
  };
  s.gap = [](Random&, Tick) { return kChaosOpGap; };
  s.ops_stop = 50 * kMillisecond;
  s.planner = true;
  s.horizon = 80 * kMillisecond;
  s.events = {{.kind = ScenarioEvent::Kind::kCrashMaster, .at = crash_at, .master_index = victim}};
  return s;
}

class RebalanceChaosTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RebalanceChaosTest, PlannerUnderFaultsPreservesWritesAndReplays) {
  const uint64_t seed = GetParam();
  const ScenarioSpec spec = RebalanceChaosSpec(seed);
  const ScenarioResult first = RunScenario(spec, seed, 1);
  const ScenarioResult second = RunScenario(spec, seed, 4);
  for (const ScenarioResult* run : {&first, &second}) {
    EXPECT_GT(run->digest.ops.acked_writes, 0u) << "seed " << seed;
    EXPECT_TRUE(run->audits_ok) << "seed " << seed << ":\n" << run->audit_summary;
    EXPECT_EQ(run->digest.lost_writes, 0u)
        << "seed " << seed << ": acked writes lost under rebalancing:\n" << run->mismatch_detail;
  }
  EXPECT_EQ(first.digest.trace_hash, second.digest.trace_hash)
      << "seed " << seed << " diverged at 4 threaded lanes";
  EXPECT_EQ(first.digest, second.digest);
  // The planner genuinely engaged under chaos.
  EXPECT_GT(first.digest.planner_migrations_started, 0u) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RebalanceChaosTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
                                           16, 17, 18, 19, 20));

}  // namespace
}  // namespace rocksteady
