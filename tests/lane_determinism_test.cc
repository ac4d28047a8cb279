// Cross-shard determinism suite for sharded event lanes (LaneSet).
//
// The lane engine's core promise: a run's trace is a pure function of its
// seed — never of the lane count or of whether lanes execute on real worker
// threads. This drives full cluster scenarios (plain YCSB-B, YCSB-B with a
// mid-run Rocksteady migration, YCSB-B under injected fabric faults, and
// spread YCSB-B on the paper's 24-master cluster) at lanes {1, 2, 4} x
// threads {off, on} across 20 seeds and asserts every digest — trace hash,
// event count, end time, client/migration/fault counters, final object
// placement — is bit-identical. Two control-plane scenarios do the same for
// detector-driven lineage recovery (kRecovery) and for the planner, a drain
// and a rolling restart (kOperations). Every run checks that no acked write
// was lost. Each scenario is a ScenarioSpec run by the one episode runner
// (bench/scenario_harness.h). Window counts depend on the lane count (one
// lane needs no lookahead windows), so they are compared only between
// threaded and unthreaded runs of one lane count.
//
// sim_determinism_test pins same-seed replay of the default one-lane
// cluster; this suite pins equality across lane counts and threading.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "bench/client_history.h"
#include "bench/scenario_harness.h"
#include "src/cluster/cluster.h"
#include "src/common/dcheck.h"
#include "src/common/hash.h"
#include "src/sim/lane_set.h"
#include "src/workload/ycsb.h"

namespace rocksteady {
namespace {

constexpr KeyHash kMid = 1ull << 63;
constexpr uint64_t kRecords = 1'000;

enum class Scenario { kYcsb, kMigration, kFaults, kScale24, kRecovery, kOperations };

const char* ScenarioName(Scenario kind) {
  switch (kind) {
    case Scenario::kYcsb:
      return "ycsb";
    case Scenario::kMigration:
      return "migration";
    case Scenario::kFaults:
      return "faults";
    case Scenario::kScale24:
      return "scale24";
    case Scenario::kRecovery:
      return "recovery";
    case Scenario::kOperations:
      return "operations";
  }
  return "?";
}

bool Migrates(Scenario kind) { return kind == Scenario::kMigration || kind == Scenario::kFaults; }

// Plain YCSB-B, YCSB-B with a mid-run migration, the same on a lossy
// fabric, and spread YCSB-B on the paper's 24-master cluster: no detector,
// no planner, so each runs straight through with Poisson arrivals.
ScenarioSpec LaneSpec(Scenario kind) {
  const bool scale24 = kind == Scenario::kScale24;
  ScenarioSpec s;
  s.name = ScenarioName(kind);
  s.cluster.num_masters = scale24 ? 24 : 4;
  s.cluster.num_clients = scale24 ? 8 : 2;
  // One tablet per master, as in the paper's 24-server scalability runs.
  s.spread = scale24;
  if (kind == Scenario::kFaults) {
    // Per-sender fault streams: each node's drop/duplicate/delay draws
    // depend only on that node's send order, which the per-node event order
    // keeps lane-count- and thread-invariant.
    s.fabric = LossyFabric{};
  }
  s.records = kRecords;
  const double ops_per_client = scale24 ? 100'000 : 40'000;
  s.gap = PoissonGap(ops_per_client * static_cast<double>(s.cluster.num_clients));
  s.ops_stop = (scale24 ? 3 : 30) * kMillisecond;
  if (Migrates(kind)) {
    // Safe-point kickoff: the lane-mode home for cross-cutting control
    // actions. Placement depends only on the global event timeline.
    s.events = {{.kind = ScenarioEvent::Kind::kMigrate,
                 .at = 10 * kMillisecond,
                 .master_index = 0,
                 .target_index = 1,
                 .start_hash = kMid}};
  }
  return s;
}

// ------------------------------------------- Control-plane scenarios.

constexpr uint64_t kControlRecords = 2'000;
constexpr KeyHash kQuarter = ~KeyHash{0} / 4;  // SpreadTableAcross's tablet span.
constexpr Tick kOpGap = 20 * kMicrosecond;     // 50k ops/s over all clients.
constexpr double kWriteFraction = 0.2;         // One durable write per 100 us.

// Quarter i of the table on master i, on a lossy fabric. kRecovery: a
// migration whose source crashes mid-flight, then one whose target does;
// the detector finds both and recovery follows the lineage rule. kOperations:
// a hot spot on master 0 -> checked split + planner migration; then drain
// master 3 (the planner evacuates it); then a rolling restart.
ScenarioSpec ControlSpec(Scenario kind) {
  using Kind = ScenarioEvent::Kind;
  const bool operations = kind == Scenario::kOperations;
  std::vector<std::string> hot_keys;  // Operations: master 0's quarter is hot.
  for (uint64_t i = 0; operations && i < kControlRecords; i++) {
    std::string key = Cluster::MakeKey(i, 30);
    if (HashKey(kScenarioTable, key) < kQuarter) {
      hot_keys.push_back(std::move(key));
    }
  }

  ScenarioSpec s;
  s.name = ScenarioName(kind);
  s.fabric = LossyFabric{.drop_probability = 0.005};
  s.records = kControlRecords;
  // Reads and durable writes, mostly to the hot keys (when there are any),
  // one op per kOpGap over all clients.
  s.choose = [hot = std::make_shared<const std::vector<std::string>>(std::move(hot_keys))](
                 Random& rng, Tick) {
    std::string key = !hot->empty() && rng.NextDouble() < 0.8
                          ? (*hot)[rng.Uniform(hot->size())]
                          : Cluster::MakeKey(rng.Uniform(kControlRecords), 30);
    return YcsbWorkload::Op{.is_read = rng.NextDouble() >= kWriteFraction,
                            .key = std::move(key)};
  };
  s.gap = [](Random&, Tick) { return kOpGap; };
  s.ops_stop = (operations ? 120 : 60) * kMillisecond;
  s.horizon = (operations ? 260 : 100) * kMillisecond;
  if (operations) {
    s.planner = true;
    s.events = {{.kind = Kind::kBeginDrain, .at = 70 * kMillisecond, .master_index = 3},
                {.kind = Kind::kRollingRestart, .at = 110 * kMillisecond}};
  } else {
    s.events = {{.kind = Kind::kMigrate,
                 .at = 10 * kMillisecond,
                 .master_index = 0,
                 .target_index = 1,
                 .start_hash = 0,
                 .end_hash = kQuarter - 1},
                {.kind = Kind::kCrashInMigration, .at = 10 * kMillisecond, .master_index = 0},
                {.kind = Kind::kMigrate,
                 .at = 40 * kMillisecond,
                 .master_index = 2,
                 .target_index = 3,
                 .start_hash = 2 * kQuarter,
                 .end_hash = 3 * kQuarter - 1},
                {.kind = Kind::kCrashInMigration, .at = 40 * kMillisecond, .master_index = 3}};
  }
  return s;
}

// Runs `spec` at one lane, then at 2 and 4 lanes unthreaded and threaded:
// every run must audit clean and lose no acked write, every digest must
// equal the one-lane run's, and threading must not change the window count.
// Returns the one-lane run.
ScenarioResult ExpectLaneInvariant(const ScenarioSpec& spec, uint64_t seed) {
  const auto expect_clean = [](const ScenarioResult& run) {
    EXPECT_TRUE(run.audits_ok) << run.audit_summary;
    EXPECT_EQ(run.digest.lost_writes, 0u) << run.mismatch_detail;
  };
  const ScenarioResult single = RunScenario(spec, seed, 1, false);
  expect_clean(single);
  for (const int lanes : {2, 4}) {
    const ScenarioResult unthreaded = RunScenario(spec, seed, lanes, false);
    expect_clean(unthreaded);
    EXPECT_EQ(unthreaded.digest, single.digest) << "lanes=" << lanes << " unthreaded diverged";
    const ScenarioResult threaded = RunScenario(spec, seed, lanes, true);
    expect_clean(threaded);
    EXPECT_EQ(threaded.digest, single.digest) << "lanes=" << lanes << " threaded diverged";
    EXPECT_EQ(threaded.windows, unthreaded.windows) << "lanes=" << lanes;
  }
  return single;
}

class LaneDeterminismTest : public testing::TestWithParam<std::tuple<Scenario, uint64_t>> {};

TEST_P(LaneDeterminismTest, HashesIdenticalAcrossLaneCountsAndThreads) {
  const auto [kind, seed] = GetParam();
  const ScenarioResult single = ExpectLaneInvariant(LaneSpec(kind), seed);
  const ScenarioResult::Digest& reference = single.digest;
  // One lane has no cross-lane link: it runs straight through, stopping
  // only at the migration kickoff's safe point.
  EXPECT_EQ(single.windows, Migrates(kind) ? 2u : 1u);
  // The scenario actually exercised the machinery.
  EXPECT_GT(reference.events_processed, 1'000u);
  EXPECT_GT(reference.ops.ok(), 0u);
  if (Migrates(kind)) {
    EXPECT_GT(reference.records_pulled, 0u);
    EXPECT_EQ(reference.master_objects[0] + reference.master_objects[1], kRecords);
  }
  if (kind == Scenario::kFaults) {
    EXPECT_GT(reference.injected_drops, 0u);
    EXPECT_GT(reference.retransmissions, 0u);
  }
}

std::string LaneParamName(const testing::TestParamInfo<std::tuple<Scenario, uint64_t>>& info) {
  return std::string(ScenarioName(std::get<0>(info.param))) + "_s" +
         std::to_string(std::get<1>(info.param));
}

// Recovery, the planner, drains and rolling restarts: every event touches
// only its own node, so they too run at any lane count with one trace.
class ControlPlaneLaneTest : public testing::TestWithParam<std::tuple<Scenario, uint64_t>> {};

TEST_P(ControlPlaneLaneTest, HashesIdenticalAcrossLaneCountsAndThreads) {
  const auto [kind, seed] = GetParam();
  const ScenarioResult single = ExpectLaneInvariant(ControlSpec(kind), seed);
  const ScenarioResult::Digest& reference = single.digest;
  // The scenario's events actually happened, and no acked write was lost.
  EXPECT_GT(reference.ops.acked_writes, 0u);
  EXPECT_EQ(reference.lost_writes, 0u);
  if (kind == Scenario::kRecovery) {
    EXPECT_EQ(reference.lineage_crashes, 2u);
    EXPECT_EQ(reference.crashes_detected, 2u);
    EXPECT_EQ(reference.recoveries_completed, 2u);
  } else {
    EXPECT_GE(reference.splits_performed, 1u);
    EXPECT_GE(reference.planner_migrations_completed, 1u);
    EXPECT_EQ(reference.drains_completed, 1u);
    EXPECT_TRUE(single.operations_converged);
    EXPECT_EQ(reference.restarts_completed, 3u);  // Every active master; master 3 drained.
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ControlPlaneLaneTest,
                         testing::Combine(testing::Values(Scenario::kRecovery,
                                                          Scenario::kOperations),
                                          testing::Range(uint64_t{0}, uint64_t{20})),
                         LaneParamName);

INSTANTIATE_TEST_SUITE_P(Seeds, LaneDeterminismTest,
                         testing::Combine(testing::Values(Scenario::kYcsb, Scenario::kMigration,
                                                          Scenario::kFaults, Scenario::kScale24),
                                          testing::Range(uint64_t{0}, uint64_t{20})),
                         LaneParamName);

// Two different seeds must diverge (guards against a degenerate lane hash).
TEST(LaneDeterminismTest, DifferentSeedsDiverge) {
  const ScenarioResult a = RunScenario(LaneSpec(Scenario::kYcsb), 42, 4, false);
  const ScenarioResult b = RunScenario(LaneSpec(Scenario::kYcsb), 43, 4, false);
  EXPECT_NE(a.digest.trace_hash, b.digest.trace_hash);
}

// A LaneSet with `nodes` nodes round-robined over `lanes` lanes.
std::unique_ptr<LaneSet> MakeLanes(int lanes, bool threads, NodeId nodes) {
  LaneSet::Config config;
  config.lanes = lanes;
  config.threads = threads;
  config.lookahead = 100;
  config.seed = 1;
  auto set = std::make_unique<LaneSet>(config);
  for (NodeId node = 0; node < nodes; node++) {
    set->AssignNode(node, static_cast<int>(node) % lanes);
  }
  return set;
}

// A message from the running node `from` to `to`, arriving at `at`: what
// Network::Send does once it has priced the wire.
void Deliver(LaneSet& set, NodeId from, NodeId to, Tick at, EventFn fn) {
  Simulator& src = set.lane_sim(set.lane_of(from));
  if (set.lane_of(to) != set.lane_of(from)) {
    set.PostCrossLane(&src, to, at, std::move(fn));
  } else {
    src.At(at, to, std::move(fn));
  }
}

// Same-timestamp deliveries to one node run in (origin node, origin
// counter) order — fixed when each was sent, so independent of the senders'
// dispatch times, their lanes, mailbox drain order and threading.
TEST(LaneTieBreakTest, SameTimestampDeliveriesFollowOriginNodeOrder) {
  for (const int lanes : {1, 2, 4}) {
    for (const bool threads : {false, true}) {
      std::unique_ptr<LaneSet> set = MakeLanes(lanes, threads, 3);
      std::vector<std::string> order;
      // Node 2 sends twice at t=5, node 1 once at t=10; all three land on
      // node 0 at t=150, next to an event setup code scheduled there.
      set->lane_sim(set->lane_of(2)).At(5, 2, [&] {
        Deliver(*set, 2, 0, 150, [&] { order.push_back("n2-first"); });
        Deliver(*set, 2, 0, 150, [&] { order.push_back("n2-second"); });
      });
      set->lane_sim(set->lane_of(1)).At(10, 1, [&] {
        Deliver(*set, 1, 0, 150, [&] { order.push_back("n1"); });
      });
      set->lane_sim(0).At(150, 0, [&] { order.push_back("root"); });
      set->Run();
      // Root context is origin 0, then nodes by id, then each origin's
      // counter — node 1 first although node 2 sent earlier.
      EXPECT_EQ(order, (std::vector<std::string>{"root", "n1", "n2-first", "n2-second"}))
          << "lanes=" << lanes << " threads=" << threads;
    }
  }
}

// With one lane there is no cross-lane link to bound a window: the lane runs
// straight to each safe point, so a run takes one window per safe point
// plus one.
TEST(LaneWindowTest, SingleLaneRunsOneWindowPerSafePointPlusOne) {
  std::unique_ptr<LaneSet> set = MakeLanes(1, false, 2);
  Simulator& sim = set->lane_sim(0);
  int fired = 0;
  // A self-rescheduling chain on node 1, 50 events 10 ns apart.
  std::function<void()> tick = [&] {
    if (++fired < 50) {
      sim.After(10, [&] { tick(); });
    }
  };
  sim.At(0, 1, [&] { tick(); });
  int safe_points_run = 0;
  for (const Tick t : {Tick{100}, Tick{250}, Tick{400}}) {
    set->AtSafePoint(t, [&] { safe_points_run++; });
  }
  set->Run();
  EXPECT_EQ(fired, 50);
  EXPECT_EQ(safe_points_run, 3);
  EXPECT_EQ(set->windows_run(), 3u + 1u);
}

// An event may post a safe point one lookahead ahead: it runs after every
// event before its time and before any at or after it, at every lane count
// — at one lane the running window is cut there; above one the time is past
// every lane's horizon and the barrier pulls the run bound in.
TEST(LaneWindowTest, SafePointPostedFromAnEventLandsAtTheSameTimelinePoint) {
  std::vector<std::string> reference;
  for (const int lanes : {1, 2, 4}) {
    for (const bool threads : {false, true}) {
      std::unique_ptr<LaneSet> set = MakeLanes(lanes, threads, 4);
      // Each node runs a chain of events 30 ns apart; the tail length makes
      // sure events run on both sides of the safe point.
      std::vector<int> ticks(4, 0);
      std::vector<std::function<void()>> chains(4);
      for (NodeId node = 0; node < 4; node++) {
        Simulator& sim = set->lane_sim(set->lane_of(node));
        chains[node] = [&, node] {
          if (++ticks[node] < 40) {
            set->lane_sim(set->lane_of(node)).After(30, chains[node]);
          }
        };
        sim.At(node, node, chains[node]);
      }
      std::vector<std::string> seen;
      Simulator& poster = set->lane_sim(set->lane_of(2));
      poster.At(250, 2, [&] {
        poster.AtSafePoint(poster.now() + 100, [&] {
          std::string counts;
          for (const int t : ticks) {
            counts += std::to_string(t) + " ";
          }
          seen.push_back(counts + "@" + std::to_string(set->now()));
        });
      });
      set->Run();
      ASSERT_EQ(seen.size(), 1u);
      if (reference.empty()) {
        reference = seen;
      }
      EXPECT_EQ(seen, reference) << "lanes=" << lanes << " threads=" << threads;
    }
  }
  EXPECT_EQ(reference, (std::vector<std::string>{"12 12 12 12 @350"}));
}

#if ROCKSTEADY_DCHECK_ENABLED

// Every lane event names its node, and only that node's lane may queue it.
TEST(LaneOwnershipDeathTest, EventQueuedOffItsNodesLaneIsFatal) {
  std::unique_ptr<LaneSet> set = MakeLanes(2, false, 2);
  EXPECT_DEATH(set->lane_sim(0).At(10, NodeId{1}, [] {}), "lane_of");
}

#endif  // ROCKSTEADY_DCHECK_ENABLED

}  // namespace
}  // namespace rocksteady
