// Chaos harness (the fault-injection tentpole's capstone): N seeds of a
// YCSB-B workload with a mid-run Rocksteady migration, run on a fabric that
// drops, duplicates, and delays messages, with a straggler and at least one
// crash-restart per run (sometimes the coordinator too). Every episode
// asserts:
//   * no committed (acked) write is ever lost,
//   * ownership always tiles the hash space and all invariant audits pass,
//   * the run is bit-identical when replayed with the same seed at 4
//     threaded lanes (trace hash): replay determinism and lane invariance.
//
// Faults are drawn from the injector's per-node seeded streams and the
// schedule from a per-seed RNG, so a failing seed reproduces exactly. Load
// comes from bench/client_history.h: each client drives its own ops.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "bench/client_history.h"
#include "src/cluster/cluster.h"
#include "src/common/audit.h"
#include "src/common/hash.h"
#include "src/migration/rocksteady_target.h"
#include "src/sim/fault_injector.h"

namespace rocksteady {
namespace {

constexpr TableId kTable = 1;
constexpr KeyHash kMid = 1ull << 63;
constexpr uint64_t kRecords = 1'000;
constexpr Tick kOpGap = 25 * kMicrosecond;    // ~40k ops/s offered.
constexpr Tick kOpsStop = 40 * kMillisecond;  // Last arrival.
constexpr Tick kHorizon = 60 * kMillisecond;  // Faults all resolved by here.

// Everything that must replay bit-identically for one seed.
struct ChaosDigest {
  uint64_t trace_hash = 0;
  size_t events = 0;
  Tick end_time = 0;
  OpCounts ops;
  uint64_t injected_drops = 0;
  uint64_t injected_duplicates = 0;
  uint64_t injected_delays = 0;
  uint64_t dropped_to_down_node = 0;
  uint64_t crashes_detected = 0;
  bool migration_completed = false;

  friend bool operator==(const ChaosDigest&, const ChaosDigest&) = default;
};

// `lanes` > 1 runs the lanes on worker threads.
ClusterConfig ChaosConfig(uint64_t seed, int lanes) {
  ClusterConfig config;
  config.num_masters = 4;
  config.num_clients = 2;
  config.seed = seed;
  config.master.hash_table_log2_buckets = 14;
  config.master.segment_size = 64 * 1024;
  config.lanes = lanes;
  config.lane_threads = lanes > 1;
  return config;
}

ChaosDigest RunChaosEpisode(uint64_t seed, int lanes) {
  // The injector must outlive the cluster's network (installed below).
  FaultInjector injector({.seed = seed * 1'000 + 7,
                          .drop_probability = 0.01,
                          .duplicate_probability = 0.005,
                          .max_extra_delay_ns = 2 * kMicrosecond});

  Cluster cluster(ChaosConfig(seed, lanes));
  cluster.net().SetFaultInjector(&injector);
  EnableMigration(&cluster);
  cluster.CreateTable(kTable, 0);
  cluster.LoadTable(kTable, kRecords, 30, 100);
  // The recovery callback runs on the coordinator's node; root-context
  // actions go through safe points.
  Simulator& sim = cluster.coordinator().sim();

  // --- Fault schedule, drawn deterministically per seed. ---
  Random schedule(seed ^ 0x9e3779b97f4a7c15ull);
  const Tick migration_at = 4 * kMillisecond + schedule.Uniform(4 * kMillisecond);
  // Crash a non-endpoint master (the migration is 0 -> 1; lineage-endpoint
  // crashes get their own targeted tests) and restart it after recovery.
  const size_t victim = 2 + schedule.Uniform(2);
  const Tick crash_at = 6 * kMillisecond + schedule.Uniform(10 * kMillisecond);
  const bool coordinator_chaos = schedule.Uniform(2) == 0;
  const Tick coordinator_crash_at = 8 * kMillisecond + schedule.Uniform(8 * kMillisecond);
  const Tick coordinator_down_for = 4 * kMillisecond + schedule.Uniform(4 * kMillisecond);
  const size_t straggler = schedule.Uniform(cluster.num_masters());
  const Tick straggle_at = 2 * kMillisecond + schedule.Uniform(10 * kMillisecond);
  const double straggle_factor = 2.0 + schedule.NextDouble() * 2.0;

  cluster.coordinator().StartFailureDetector();
  bool victim_restarted = false;
  cluster.coordinator().on_recovery_complete = [&](ServerId id) {
    // Rejoin only after recovery finishes: restarting earlier would race the
    // re-homing of the dead server's tablets. A restart is an operator action
    // on another node, so it runs as a safe-point task.
    sim.AtSafePoint(sim.now() + kMillisecond, [&, id] {
      cluster.coordinator().master(id)->Restart();
      victim_restarted = true;
    });
  };

  cluster.AtSafePoint(crash_at, [&] { cluster.master(victim).Crash(); });
  if (coordinator_chaos) {
    cluster.AtSafePoint(coordinator_crash_at, [&] { cluster.coordinator().Crash(); });
    cluster.AtSafePoint(coordinator_crash_at + coordinator_down_for,
                        [&] { cluster.coordinator().Restart(); });
  }
  cluster.AtSafePoint(straggle_at, [&] {
    cluster.master(straggler).cores().SetSlowdown(straggle_factor);
  });
  cluster.AtSafePoint(straggle_at + 5 * kMillisecond,
                      [&] { cluster.master(straggler).cores().SetSlowdown(1.0); });

  std::optional<MigrationStats> stats;
  cluster.AtSafePoint(migration_at, [&] {
    StartRocksteadyMigration(&cluster, kTable, kMid, ~0ull, 0, 1, RocksteadyOptions{},
                             [&](const MigrationStats& s) { stats = s; });
  });

  // --- YCSB-B from every client, with a durability reference. ---
  const ClientHistories histories = StartClientHistories(
      cluster, kTable, kOpsStop, [] { return YcsbBChoice(kRecords); },
      [](Random&, Tick) { return kOpGap; }, ClientHistory::kUnbounded);

  // --- Run, then drain (the detector sweep is an infinite loop). ---
  cluster.RunUntil(kHorizon);
  cluster.coordinator().StopFailureDetector();
  cluster.Run();

  ChaosDigest digest;
  digest.ops = CountOps(histories);
  EXPECT_TRUE(stats.has_value()) << "seed " << seed << ": migration did not complete";
  EXPECT_TRUE(victim_restarted) << "seed " << seed << ": no crash-restart happened";
  EXPECT_GT(digest.ops.acked_writes, 0u) << "seed " << seed;

  // Invariant audits: ownership tiles the hash space, dependencies are
  // consistent, every store is internally coherent.
  AuditReport report;
  cluster.AuditInvariants(&report);
  EXPECT_TRUE(report.ok()) << "seed " << seed << ":\n" << report.Summary();

  // No committed write lost: every key must read back as its last acked
  // value, the loaded default if never written, or — only for keys with a
  // client-abandoned write — one of those indeterminate values.
  const ReadBackResult lost = VerifyReadBack(cluster, kTable, LoadedKeys(kRecords), histories);
  EXPECT_EQ(lost.mismatches, 0u) << "seed " << seed << ": committed writes lost or corrupted:\n"
                                 << lost.detail;

  // The fabric really was hostile.
  EXPECT_GT(cluster.net().injected_drops(), 0u);
  EXPECT_GT(cluster.net().injected_duplicates(), 0u);

  digest.trace_hash = cluster.trace_hash();
  digest.events = cluster.events_processed();
  digest.end_time = cluster.now();
  digest.injected_drops = cluster.net().injected_drops();
  digest.injected_duplicates = cluster.net().injected_duplicates();
  digest.injected_delays = cluster.net().injected_delays();
  digest.dropped_to_down_node = cluster.net().dropped_to_down_node();
  digest.crashes_detected = cluster.coordinator().crashes_detected();
  digest.migration_completed = stats.has_value();
  cluster.net().SetFaultInjector(nullptr);
  return digest;
}

class ChaosTest : public ::testing::TestWithParam<uint64_t> {};

// The replay runs at 4 threaded lanes: one run checks both replay
// determinism and lane invariance.
TEST_P(ChaosTest, SurvivesAndReplaysBitIdentically) {
  const uint64_t seed = GetParam();
  const ChaosDigest first = RunChaosEpisode(seed, 1);
  const ChaosDigest second = RunChaosEpisode(seed, 4);
  EXPECT_EQ(first.trace_hash, second.trace_hash)
      << "seed " << seed << " diverged at 4 threaded lanes";
  EXPECT_EQ(first, second);
}

// The read-back can fail: with no fault it reports no mismatch, and one
// acked write overwritten behind the client's back (in root context,
// through the owning master's store) is exactly one mismatch.
TEST(ReadBackTest, CatchesOneLostAckedWrite) {
  Cluster cluster(ChaosConfig(7, 1));
  cluster.CreateTable(kTable, 0);
  cluster.LoadTable(kTable, kRecords, 30, 100);
  const ClientHistories histories = StartClientHistories(
      cluster, kTable, 10 * kMillisecond, [] { return YcsbBChoice(kRecords); },
      [](Random&, Tick) { return kOpGap; }, ClientHistory::kUnbounded);
  cluster.Run();
  const std::vector<std::string> keys = LoadedKeys(kRecords);
  EXPECT_EQ(VerifyReadBack(cluster, kTable, keys, histories).mismatches, 0u);

  std::string acked_key;
  for (const auto& history : histories) {
    for (const auto& [key, state] : history->writes()) {
      if (state.acked && acked_key.empty()) {
        acked_key = key;
      }
    }
  }
  ASSERT_FALSE(acked_key.empty());
  const KeyHash hash = HashKey(kTable, acked_key);
  Coordinator& coordinator = cluster.coordinator();
  coordinator.master(coordinator.OwnerOf(kTable, hash))
      ->objects()
      .Write(kTable, acked_key, hash, "overwritten");
  const ReadBackResult lost = VerifyReadBack(cluster, kTable, keys, histories);
  EXPECT_EQ(lost.mismatches, 1u);
  EXPECT_NE(lost.detail.find(acked_key), std::string::npos) << lost.detail;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
                                           17, 18, 19, 20));

// --- Overload chaos: migration under a source already past saturation. ---
//
// YCSB-B arrives in square-wave bursts at ~2x the single-worker source's
// sustainable rate (troughs at ~0.4x let the queue drain, as real open-loop
// load does), with a Rocksteady migration kicked off mid-run. Asserts, per
// seed:
//   * no acked write is ever lost and the migration completes,
//   * adaptive pacing strictly improves client-visible read p99.9 over the
//     same episode with pacing disabled,
//   * the paced run replays bit-identically at 4 threaded lanes.
constexpr uint64_t kOverloadRecords = 12'000;
// Migrate only the top quarter of the hash space: the source keeps ~3/4 of
// the client load for the whole run, so its bursts stay past saturation
// before AND after the ownership transfer.
constexpr KeyHash kSliceStart = 0xC000'0000'0000'0000ull;
constexpr Tick kBurstPhase = 1 * kMillisecond;   // Burst length...
constexpr Tick kTroughPhase = 3 * kMillisecond;  // ...then drain time.
constexpr Tick kBurstGap = 12 * kMicrosecond;    // ~1.7x the ~21 us/op service.
constexpr Tick kTroughGap = 100 * kMicrosecond;  // ~0.2x: queues drain fully.
// Start mid-trough, right when the previous burst's backlog has just
// drained: the two blind-issued first pulls run (and finish) before the
// next burst, and their replies still see the drain's >200us completions in
// the source's sliding latency window — so the paced run is already backed
// off when that burst arrives, instead of discovering the overload the
// hard way.
constexpr Tick kOverloadMigrationAt = 6'000 * kMicrosecond;
// The tail comparison starts once the controller has had one reply's worth
// of load signal: until the first pull replies return, both runs have
// blind-issued the same full-size pulls (the paced run starts at full
// aggressiveness by design, so a quiet source's schedule is untouched), and
// that shared startup transient would mask the steady-state difference.
constexpr Tick kOverloadSampleFrom = kOverloadMigrationAt + 2 * kMillisecond;

struct OverloadDigest {
  uint64_t trace_hash = 0;
  size_t events = 0;
  OpCounts ops;
  Tick read_p999 = 0;
  uint64_t pacing_backoffs = 0;
  uint64_t pull_rejections = 0;
  uint64_t client_sheds = 0;
  uint64_t mismatches = 0;
  bool migration_completed = false;

  friend bool operator==(const OverloadDigest&, const OverloadDigest&) = default;
};

OverloadDigest RunOverloadEpisode(uint64_t seed, bool pacing, int lanes) {
  ClusterConfig config = ChaosConfig(seed, lanes);
  config.master.num_workers = 1;
  // Worker-bound ops so one worker saturates at a modest op rate while the
  // dispatch core keeps plenty of headroom (the overload is at the workers,
  // where pulls and client requests compete). Pulls are made record-bound so
  // an unpaced 32 KB pull occupies the source's worker for ~730 us — the
  // non-preemptible remnant that poisons the next burst's whole queue.
  config.costs.read_op_ns = 20'000;
  config.costs.write_op_ns = 24'000;
  config.costs.pull_per_record_ns = 4'000;
  Cluster cluster(config);
  EnableMigration(&cluster);
  cluster.CreateTable(kTable, 0);
  cluster.LoadTable(kTable, kOverloadRecords, 30, 100);

  RocksteadyOptions options;
  options.adaptive_pacing = pacing;
  // Big unpaced chunks make the no-pacing baseline honest: this is the §4.1
  // "fast as possible" configuration the controller throttles down from.
  // Two partitions bound how many full-size pulls either run blind-issues
  // before the first load signal comes back.
  options.pull_budget_bytes = 32 * 1024;
  options.num_partitions = 2;

  std::optional<MigrationStats> stats;
  cluster.AtSafePoint(kOverloadMigrationAt, [&] {
    StartRocksteadyMigration(&cluster, kTable, kSliceStart, ~0ull, 0, 1, options,
                             [&](const MigrationStats& s) { stats = s; });
  });

  const ClientHistories histories = StartClientHistories(
      cluster, kTable, kOpsStop, [] { return YcsbBChoice(kOverloadRecords); },
      [](Random&, Tick now) {
        return now % (kBurstPhase + kTroughPhase) < kBurstPhase ? kBurstGap : kTroughGap;
      },
      ClientHistory::kUnbounded);

  cluster.Run();

  OverloadDigest digest;
  digest.ops = CountOps(histories);
  EXPECT_TRUE(stats.has_value()) << "seed " << seed << ": migration did not complete";
  EXPECT_GT(digest.ops.acked_writes, 0u) << "seed " << seed;

  AuditReport report;
  cluster.AuditInvariants(&report);
  EXPECT_TRUE(report.ok()) << "seed " << seed << ":\n" << report.Summary();

  // No committed write lost (same acceptance rule as RunChaosEpisode).
  const ReadBackResult lost =
      VerifyReadBack(cluster, kTable, LoadedKeys(kOverloadRecords), histories);
  digest.mismatches = lost.mismatches;
  EXPECT_EQ(digest.mismatches, 0u)
      << "seed " << seed << " pacing=" << pacing << ": acked writes lost:\n" << lost.detail;

  // The tail comparison is over reads issued once migration is under way
  // (what the paper's impact figures measure); pre-migration bursts are
  // identical in both runs and would only dilute the percentile.
  std::vector<Tick> read_latencies;
  ForEachOp(histories, [&read_latencies](const OpRecord& op) {
    if (op.is_read && op.status == Status::kOk && op.issued >= kOverloadSampleFrom) {
      read_latencies.push_back(op.completed - op.issued);
    }
  });
  digest.read_p999 = Quantile(std::move(read_latencies), 0.999);
  digest.trace_hash = cluster.trace_hash();
  digest.events = cluster.events_processed();
  digest.pacing_backoffs = stats.has_value() ? stats->pacing_backoffs : 0;
  digest.pull_rejections = stats.has_value() ? stats->pull_rejections : 0;
  digest.client_sheds = cluster.master(0).client_sheds();
  digest.migration_completed = stats.has_value();
  return digest;
}

class OverloadChaosTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OverloadChaosTest, PacingCutsTailAndReplaysBitIdentically) {
  const uint64_t seed = GetParam();
  const OverloadDigest paced = RunOverloadEpisode(seed, /*pacing=*/true, 1);
  const OverloadDigest replay = RunOverloadEpisode(seed, /*pacing=*/true, 4);
  EXPECT_EQ(paced.trace_hash, replay.trace_hash)
      << "seed " << seed << " diverged at 4 threaded lanes";
  EXPECT_EQ(paced, replay);

  const OverloadDigest unpaced = RunOverloadEpisode(seed, /*pacing=*/false, 1);
  EXPECT_TRUE(paced.migration_completed);
  EXPECT_TRUE(unpaced.migration_completed);
  EXPECT_EQ(paced.mismatches, 0u);
  EXPECT_EQ(unpaced.mismatches, 0u);
  // The controller engaged (and only when enabled)...
  EXPECT_GE(paced.pacing_backoffs, 1u) << "seed " << seed;
  EXPECT_EQ(unpaced.pacing_backoffs, 0u) << "seed " << seed;
  // ...and strictly improved the client-visible tail.
  EXPECT_LT(paced.read_p999, unpaced.read_p999) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, OverloadChaosTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
                                           17, 18, 19, 20));

}  // namespace
}  // namespace rocksteady
