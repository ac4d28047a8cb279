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
// schedule from a per-seed RNG, so a failing seed reproduces exactly. Each
// suite is a ScenarioSpec run by the one episode runner
// (bench/scenario_harness.h); load comes from bench/client_history.h.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "bench/client_history.h"
#include "bench/scenario_harness.h"
#include "src/cluster/cluster.h"
#include "src/common/hash.h"

namespace rocksteady {
namespace {

constexpr TableId kTable = kScenarioTable;
constexpr KeyHash kMid = 1ull << 63;
constexpr uint64_t kRecords = 1'000;
constexpr Tick kOpGap = 25 * kMicrosecond;    // ~40k ops/s offered.
constexpr Tick kOpsStop = 40 * kMillisecond;  // Last arrival.
constexpr Tick kHorizon = 60 * kMillisecond;  // Faults all resolved by here.

// One seed's schedule, drawn deterministically: a 0 -> 1 migration, a crash
// of a non-endpoint master (lineage-endpoint crashes get their own targeted
// tests) restarted after its recovery, sometimes a coordinator crash and
// restart, and a straggler.
ScenarioSpec ChaosSpec(uint64_t seed) {
  using Kind = ScenarioEvent::Kind;
  Random schedule(seed ^ 0x9e3779b97f4a7c15ull);
  const Tick migration_at = 4 * kMillisecond + schedule.Uniform(4 * kMillisecond);
  const size_t victim = 2 + schedule.Uniform(2);
  const Tick crash_at = 6 * kMillisecond + schedule.Uniform(10 * kMillisecond);
  const bool coordinator_chaos = schedule.Uniform(2) == 0;
  const Tick coordinator_crash_at = 8 * kMillisecond + schedule.Uniform(8 * kMillisecond);
  const Tick coordinator_down_for = 4 * kMillisecond + schedule.Uniform(4 * kMillisecond);
  const size_t straggler = schedule.Uniform(4);
  const Tick straggle_at = 2 * kMillisecond + schedule.Uniform(10 * kMillisecond);
  const double straggle_factor = 2.0 + schedule.NextDouble() * 2.0;

  ScenarioSpec s;
  s.name = "chaos";
  s.spread = false;
  s.fabric = LossyFabric{};
  s.records = kRecords;
  s.gap = [](Random&, Tick) { return kOpGap; };
  s.ops_stop = kOpsStop;
  s.horizon = kHorizon;
  s.events.push_back({.kind = Kind::kCrashMaster, .at = crash_at, .master_index = victim});
  if (coordinator_chaos) {
    s.events.push_back({.kind = Kind::kCrashCoordinator, .at = coordinator_crash_at});
    s.events.push_back(
        {.kind = Kind::kRestartCoordinator, .at = coordinator_crash_at + coordinator_down_for});
  }
  s.events.push_back({.kind = Kind::kSlowCores,
                      .at = straggle_at,
                      .master_index = straggler,
                      .slowdown = straggle_factor});
  s.events.push_back(
      {.kind = Kind::kSlowCores, .at = straggle_at + 5 * kMillisecond, .master_index = straggler});
  s.events.push_back({.kind = Kind::kMigrate,
                      .at = migration_at,
                      .master_index = 0,
                      .target_index = 1,
                      .start_hash = kMid});
  return s;
}

// What every run of the chaos and overload suites must show: the migration
// reported back, writes were acked, the audits pass and none was lost.
void ExpectMigratedWithoutLoss(const ScenarioResult& run, uint64_t seed) {
  EXPECT_EQ(run.digest.migrations_finished, 1u)
      << "seed " << seed << ": migration did not complete";
  EXPECT_GT(run.digest.ops.acked_writes, 0u) << "seed " << seed;
  EXPECT_TRUE(run.audits_ok) << "seed " << seed << ":\n" << run.audit_summary;
  EXPECT_EQ(run.digest.lost_writes, 0u)
      << "seed " << seed << ": committed writes lost or corrupted:\n" << run.mismatch_detail;
}

class ChaosTest : public ::testing::TestWithParam<uint64_t> {};

// The replay runs at 4 threaded lanes: one run checks both replay
// determinism and lane invariance.
TEST_P(ChaosTest, SurvivesAndReplaysBitIdentically) {
  const uint64_t seed = GetParam();
  const ScenarioSpec spec = ChaosSpec(seed);
  const ScenarioResult first = RunScenario(spec, seed, 1);
  const ScenarioResult second = RunScenario(spec, seed, 4);
  for (const ScenarioResult* run : {&first, &second}) {
    ExpectMigratedWithoutLoss(*run, seed);
    EXPECT_GE(run->digest.recovery_restarts, 1u)
        << "seed " << seed << ": no crash-restart happened";
    // The fabric really was hostile.
    EXPECT_GT(run->digest.injected_drops, 0u);
    EXPECT_GT(run->digest.injected_duplicates, 0u);
  }
  EXPECT_EQ(first.digest.trace_hash, second.digest.trace_hash)
      << "seed " << seed << " diverged at 4 threaded lanes";
  EXPECT_EQ(first.digest, second.digest);
}

// The read-back can fail: with no fault it reports no mismatch, and one
// acked write overwritten behind the client's back (in root context,
// through the owning master's store) is exactly one mismatch.
TEST(ReadBackTest, CatchesOneLostAckedWrite) {
  ClusterConfig config = EpisodeCluster();
  config.seed = 7;
  Cluster cluster(config);
  cluster.CreateTable(kTable, 0);
  cluster.LoadTable(kTable, kRecords, 30, 100);
  const ClientHistories histories = StartClientHistories(
      cluster, kTable, 10 * kMillisecond, YcsbBChoice(kRecords),
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

ScenarioSpec OverloadSpec(bool pacing) {
  ScenarioSpec s;
  s.name = pacing ? "overload_paced" : "overload_unpaced";
  s.cluster.master.num_workers = 1;
  // Worker-bound ops so one worker saturates at a modest op rate while the
  // dispatch core keeps plenty of headroom (the overload is at the workers,
  // where pulls and client requests compete). Pulls are made record-bound so
  // an unpaced 32 KB pull occupies the source's worker for ~730 us — the
  // non-preemptible remnant that poisons the next burst's whole queue.
  s.cluster.costs.read_op_ns = 20'000;
  s.cluster.costs.write_op_ns = 24'000;
  s.cluster.costs.pull_per_record_ns = 4'000;
  s.spread = false;
  s.records = kOverloadRecords;
  s.gap = [](Random&, Tick now) {
    return now % (kBurstPhase + kTroughPhase) < kBurstPhase ? kBurstGap : kTroughGap;
  };
  s.ops_stop = kOpsStop;

  RocksteadyOptions options;
  options.adaptive_pacing = pacing;
  // Big unpaced chunks make the no-pacing baseline honest: this is the §4.1
  // "fast as possible" configuration the controller throttles down from.
  // Two partitions bound how many full-size pulls either run blind-issues
  // before the first load signal comes back.
  options.pull_budget_bytes = 32 * 1024;
  options.num_partitions = 2;
  s.events = {{.kind = ScenarioEvent::Kind::kMigrate,
               .at = kOverloadMigrationAt,
               .master_index = 0,
               .target_index = 1,
               .start_hash = kSliceStart,
               .options = options}};
  // The tail comparison is over reads issued once migration is under way
  // (what the paper's impact figures measure); pre-migration bursts are
  // identical in both runs and would only dilute the percentile.
  s.phases = {{"migrating", kOverloadSampleFrom, std::numeric_limits<Tick>::max()}};
  return s;
}

class OverloadChaosTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OverloadChaosTest, PacingCutsTailAndReplaysBitIdentically) {
  const uint64_t seed = GetParam();
  const ScenarioResult paced = RunScenario(OverloadSpec(/*pacing=*/true), seed, 1);
  const ScenarioResult replay = RunScenario(OverloadSpec(/*pacing=*/true), seed, 4);
  EXPECT_EQ(paced.digest.trace_hash, replay.digest.trace_hash)
      << "seed " << seed << " diverged at 4 threaded lanes";
  EXPECT_EQ(paced.digest, replay.digest);

  const ScenarioResult unpaced = RunScenario(OverloadSpec(/*pacing=*/false), seed, 1);
  for (const ScenarioResult* run : {&paced, &replay, &unpaced}) {
    ExpectMigratedWithoutLoss(*run, seed);
  }
  // The controller engaged (and only when enabled)...
  EXPECT_GE(paced.digest.pacing_backoffs, 1u) << "seed " << seed;
  EXPECT_EQ(unpaced.digest.pacing_backoffs, 0u) << "seed " << seed;
  // ...and strictly improved the client-visible tail.
  EXPECT_LT(paced.digest.phases[0].p999_ns, unpaced.digest.phases[0].p999_ns)
      << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, OverloadChaosTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
                                           17, 18, 19, 20));

}  // namespace
}  // namespace rocksteady
