// Cross-shard determinism suite for sharded event lanes (LaneSet).
//
// The lane engine's core promise: a run's trace is a pure function of its
// seed — never of the lane count or of whether lanes execute on real worker
// threads. This drives full cluster scenarios (plain YCSB-B, YCSB-B with a
// mid-run Rocksteady migration, YCSB-B under injected fabric faults, and
// spread YCSB-B on the paper's 24-master cluster) at lanes {1, 2, 4} x
// threads {off, on} across 20 seeds and asserts every digest — trace hash,
// event count, end time, client/migration/fault counters, final object
// placement — is bit-identical. Window counts depend on the lane count (one
// lane needs no lookahead windows), so they are compared only between
// threaded and unthreaded runs of one lane count.
//
// sim_determinism_test pins same-seed replay of the default one-lane
// cluster; this suite pins equality across lane counts and threading.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/common/audit.h"
#include "src/common/dcheck.h"
#include "src/migration/rocksteady_target.h"
#include "src/sim/fault_injector.h"
#include "src/sim/lane_set.h"
#include "src/workload/client_actor.h"
#include "src/workload/ycsb.h"

namespace rocksteady {
namespace {

constexpr TableId kTable = 1;
constexpr KeyHash kMid = 1ull << 63;
constexpr uint64_t kRecords = 1'000;

enum class Scenario { kYcsb, kMigration, kFaults, kScale24 };

struct LaneDigest {
  uint64_t trace_hash = 0;
  size_t events = 0;
  Tick end_time = 0;
  uint64_t client_completed = 0;
  uint64_t client_failed = 0;
  uint64_t records_pulled = 0;
  uint64_t source_objects = 0;
  uint64_t target_objects = 0;
  uint64_t injected_drops = 0;
  uint64_t injected_duplicates = 0;
  uint64_t retransmissions = 0;

  friend bool operator==(const LaneDigest&, const LaneDigest&) = default;
};

struct LaneRun {
  LaneDigest digest;
  uint64_t windows = 0;
};

// Splits the table into one tablet per master and hands tablet i to master
// i: every master serves a slice of the key space, as in the paper's
// 24-server scalability runs.
void SpreadTable(Cluster& cluster) {
  const auto n = static_cast<uint64_t>(cluster.num_masters());
  for (uint64_t i = 1; i < n; i++) {
    ASSERT_EQ(cluster.coordinator().SplitTablet(kTable, ~0ull / n * i), Status::kOk);
  }
  const auto tablets = cluster.coordinator().GetTableConfig(kTable);
  for (size_t i = 0; i < tablets.size(); i++) {
    const ServerId owner = cluster.master(i % cluster.num_masters()).id();
    if (tablets[i].owner != owner) {
      ASSERT_EQ(cluster.coordinator().ReassignTablet(kTable, tablets[i].start_hash,
                                                     tablets[i].end_hash, owner),
                Status::kOk);
    }
  }
}

LaneRun RunLaneScenario(Scenario kind, uint64_t seed, int lanes, bool threads) {
  // The injector must outlive the cluster's network.
  FaultInjector injector({.seed = seed * 1'000 + 7,
                          .drop_probability = 0.01,
                          .duplicate_probability = 0.005,
                          .max_extra_delay_ns = 2 * kMicrosecond});

  const bool scale24 = kind == Scenario::kScale24;
  ClusterConfig config;
  config.num_masters = scale24 ? 24 : 4;
  config.num_clients = scale24 ? 8 : 2;
  config.master.hash_table_log2_buckets = 14;
  config.master.segment_size = 64 * 1024;
  config.seed = seed;
  config.lanes = lanes;
  config.lane_threads = threads;
  Cluster cluster(config);
  if (kind == Scenario::kFaults) {
    // Per-sender fault streams: each node's drop/duplicate/delay draws
    // depend only on that node's send order, which the per-node event order keeps
    // lane-count- and thread-invariant.
    cluster.net().SetFaultInjector(&injector);
  }
  const bool migrates = kind == Scenario::kMigration || kind == Scenario::kFaults;
  if (migrates) {
    EnableMigration(&cluster);
  }
  cluster.CreateTable(kTable, 0);
  if (scale24) {
    SpreadTable(cluster);
  }
  cluster.LoadTable(kTable, kRecords, 30, 100);

  YcsbConfig ycsb = YcsbConfig::WorkloadB();
  ycsb.num_records = kRecords;
  YcsbWorkload workload(ycsb);
  ClientActorConfig actor_config;
  actor_config.ops_per_second = scale24 ? 100'000 : 40'000;
  actor_config.stop_time = (scale24 ? 3 : 30) * kMillisecond;
  std::vector<std::unique_ptr<ClientActor>> actors;
  for (size_t c = 0; c < cluster.num_clients(); c++) {
    actors.push_back(
        std::make_unique<ClientActor>(kTable, &cluster.client(c), &workload, actor_config));
    actors.back()->Start();
  }

  std::optional<MigrationStats> stats;
  if (migrates) {
    // Safe-point kickoff: the lane-mode home for cross-cutting control
    // actions. Placement depends only on the global event timeline.
    cluster.AtSafePoint(10 * kMillisecond, [&] {
      StartRocksteadyMigration(&cluster, kTable, kMid, ~0ull, 0, 1, RocksteadyOptions{},
                               [&](const MigrationStats& s) { stats = s; });
    });
  }
  cluster.Run();

  AuditReport report;
  cluster.master(0).objects().AuditInvariants(&report);
  cluster.master(1).objects().AuditInvariants(&report);
  EXPECT_TRUE(report.ok()) << report.Summary();

  LaneRun run;
  run.windows = cluster.lanes()->windows_run();
  LaneDigest& digest = run.digest;
  digest.trace_hash = cluster.trace_hash();
  digest.events = cluster.events_processed();
  digest.end_time = cluster.now();
  for (const auto& actor : actors) {
    digest.client_completed += actor->completed();
    digest.client_failed += actor->failed();
  }
  digest.records_pulled = stats ? stats->records_pulled : 0;
  digest.source_objects = cluster.master(0).objects().object_count();
  digest.target_objects = cluster.master(1).objects().object_count();
  digest.injected_drops = cluster.net().injected_drops();
  digest.injected_duplicates = cluster.net().injected_duplicates();
  digest.retransmissions = cluster.rpc().retransmissions();
  return run;
}

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
  }
  return "?";
}

class LaneDeterminismTest : public testing::TestWithParam<std::tuple<Scenario, uint64_t>> {};

TEST_P(LaneDeterminismTest, HashesIdenticalAcrossLaneCountsAndThreads) {
  const auto [kind, seed] = GetParam();
  const LaneRun single = RunLaneScenario(kind, seed, 1, false);
  const LaneDigest& reference = single.digest;
  // One lane has no cross-lane link: it runs straight through, stopping
  // only at the migration kickoff's safe point.
  const bool migrates = kind == Scenario::kMigration || kind == Scenario::kFaults;
  EXPECT_EQ(single.windows, migrates ? 2u : 1u);
  // The scenario actually exercised the machinery.
  EXPECT_GT(reference.events, 1'000u);
  EXPECT_GT(reference.client_completed, 0u);
  if (migrates) {
    EXPECT_GT(reference.records_pulled, 0u);
    EXPECT_EQ(reference.source_objects + reference.target_objects, kRecords);
  }
  if (kind == Scenario::kFaults) {
    EXPECT_GT(reference.injected_drops, 0u);
    EXPECT_GT(reference.retransmissions, 0u);
  }
  for (const int lanes : {2, 4}) {
    const LaneRun unthreaded = RunLaneScenario(kind, seed, lanes, false);
    EXPECT_EQ(unthreaded.digest, reference) << "lanes=" << lanes << " unthreaded diverged";
    const LaneRun threaded = RunLaneScenario(kind, seed, lanes, true);
    EXPECT_EQ(threaded.digest, reference) << "lanes=" << lanes << " threaded diverged";
    EXPECT_EQ(threaded.windows, unthreaded.windows) << "lanes=" << lanes;
  }
}

std::string LaneParamName(const testing::TestParamInfo<std::tuple<Scenario, uint64_t>>& info) {
  return std::string(ScenarioName(std::get<0>(info.param))) + "_s" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(Seeds, LaneDeterminismTest,
                         testing::Combine(testing::Values(Scenario::kYcsb, Scenario::kMigration,
                                                          Scenario::kFaults, Scenario::kScale24),
                                          testing::Range(uint64_t{0}, uint64_t{20})),
                         LaneParamName);

// Two different seeds must diverge (guards against a degenerate lane hash).
TEST(LaneDeterminismTest, DifferentSeedsDiverge) {
  const LaneRun a = RunLaneScenario(Scenario::kYcsb, 42, 4, false);
  const LaneRun b = RunLaneScenario(Scenario::kYcsb, 43, 4, false);
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

#if ROCKSTEADY_DCHECK_ENABLED

// Every lane event names its node, and only that node's lane may queue it.
TEST(LaneOwnershipDeathTest, EventQueuedOffItsNodesLaneIsFatal) {
  std::unique_ptr<LaneSet> set = MakeLanes(2, false, 2);
  EXPECT_DEATH(set->lane_sim(0).At(10, NodeId{1}, [] {}), "lane_of");
}

#endif  // ROCKSTEADY_DCHECK_ENABLED

}  // namespace
}  // namespace rocksteady
