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
// and a rolling restart (kOperations), each checking that no acked write
// was lost. Window counts depend on the lane count (one
// lane needs no lookahead windows), so they are compared only between
// threaded and unthreaded runs of one lane count.
//
// sim_determinism_test pins same-seed replay of the default one-lane
// cluster; this suite pins equality across lane counts and threading.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "bench/client_history.h"
#include "bench/experiment_common.h"
#include "src/cluster/cluster.h"
#include "src/cluster/operations.h"
#include "src/common/audit.h"
#include "src/common/dcheck.h"
#include "src/common/hash.h"
#include "src/migration/rocksteady_target.h"
#include "src/rebalance/planner.h"
#include "src/sim/fault_injector.h"
#include "src/sim/lane_set.h"
#include "src/workload/ycsb.h"

namespace rocksteady {
namespace {

constexpr TableId kTable = 1;
constexpr KeyHash kMid = 1ull << 63;
constexpr uint64_t kRecords = 1'000;

enum class Scenario { kYcsb, kMigration, kFaults, kScale24, kRecovery, kOperations };

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
  // Control-plane scenarios.
  uint64_t crashes_detected = 0;
  uint64_t lineage_crashes = 0;  // Crashes of a live migration endpoint.
  uint64_t recoveries_completed = 0;
  uint64_t splits_performed = 0;
  uint64_t planner_migrations = 0;
  uint64_t drains_completed = 0;
  uint64_t restarts_completed = 0;
  uint64_t acked_writes = 0;
  uint64_t failed_writes = 0;
  uint64_t lost_writes = 0;  // Read-back mismatches: must stay 0.

  friend bool operator==(const LaneDigest&, const LaneDigest&) = default;
  friend std::ostream& operator<<(std::ostream& os, const LaneDigest& d) {
    return os << "{hash=" << d.trace_hash << " events=" << d.events << " end=" << d.end_time
              << " completed=" << d.client_completed << " failed=" << d.client_failed
              << " pulled=" << d.records_pulled << " objects=" << d.source_objects << "/"
              << d.target_objects << " drops=" << d.injected_drops
              << " dups=" << d.injected_duplicates << " retx=" << d.retransmissions
              << " crashes=" << d.crashes_detected << "/" << d.lineage_crashes << "/"
              << d.recoveries_completed << " splits=" << d.splits_performed
              << " planner=" << d.planner_migrations << " drains=" << d.drains_completed
              << " restarts=" << d.restarts_completed << " writes=" << d.acked_writes << "/"
              << d.failed_writes << " lost=" << d.lost_writes << "}";
  }
};

struct LaneRun {
  LaneDigest digest;
  uint64_t windows = 0;
};

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
    // One tablet per master, as in the paper's 24-server scalability runs.
    SpreadTableAcross(cluster, kTable, config.num_masters);
  }
  cluster.LoadTable(kTable, kRecords, 30, 100);

  const double ops_per_client = scale24 ? 100'000 : 40'000;
  const ClientHistories histories = StartClientHistories(
      cluster, kTable, (scale24 ? 3 : 30) * kMillisecond, [] { return YcsbBChoice(kRecords); },
      PoissonGap(ops_per_client * static_cast<double>(cluster.num_clients())),
      ClientHistory::kUnbounded);

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
  cluster.AuditInvariants(&report);
  EXPECT_TRUE(report.ok()) << report.Summary();

  LaneRun run;
  run.windows = cluster.lanes()->windows_run();
  LaneDigest& digest = run.digest;
  digest.trace_hash = cluster.trace_hash();
  digest.events = cluster.events_processed();
  digest.end_time = cluster.now();
  const OpCounts ops = CountOps(histories);
  digest.client_completed = ops.ok();
  digest.client_failed = ops.failed();
  digest.records_pulled = stats ? stats->records_pulled : 0;
  digest.source_objects = cluster.master(0).objects().object_count();
  digest.target_objects = cluster.master(1).objects().object_count();
  digest.injected_drops = cluster.net().injected_drops();
  digest.injected_duplicates = cluster.net().injected_duplicates();
  digest.retransmissions = cluster.rpc().retransmissions();
  return run;
}

// ------------------------------------------- Control-plane scenarios.

constexpr uint64_t kControlRecords = 2'000;
constexpr KeyHash kQuarter = KeyHash{1} << 62;
constexpr Tick kOpGap = 20 * kMicrosecond;  // 50k ops/s over all clients.
constexpr double kWriteFraction = 0.2;     // One durable write per 100 us.

// Runs `crash` at the first safe point (polled every 5 us for 5 ms from
// `from`) at which `mid_migration` holds — a lineage dependency names the
// victim.
void CrashMidMigration(Cluster& cluster, Tick from, std::function<bool()> mid_migration,
                       std::function<void()> crash, int polls_left = 1'000) {
  cluster.AtSafePoint(from, [&cluster, from, mid_migration, crash, polls_left] {
    if (mid_migration()) {
      crash();
    } else if (polls_left > 1) {
      CrashMidMigration(cluster, from + 5 * kMicrosecond, mid_migration, crash, polls_left - 1);
    }
  });
}

LaneRun RunControlScenario(Scenario kind, uint64_t seed, int lanes, bool threads) {
  FaultInjector injector({.seed = seed * 1'000 + 7,
                          .drop_probability = 0.005,
                          .duplicate_probability = 0.005,
                          .max_extra_delay_ns = 2 * kMicrosecond});
  ClusterConfig config;
  config.num_masters = 4;
  config.num_clients = 2;
  config.master.hash_table_log2_buckets = 14;
  config.master.segment_size = 64 * 1024;
  config.seed = seed;
  config.lanes = lanes;
  config.lane_threads = threads;
  Cluster cluster(config);
  cluster.net().SetFaultInjector(&injector);
  EnableMigration(&cluster);
  Coordinator& coordinator = cluster.coordinator();
  cluster.CreateTable(kTable, 0);
  for (uint64_t i = 1; i < 4; i++) {  // Quarter i on master i.
    EXPECT_EQ(coordinator.SplitTablet(kTable, i * kQuarter), Status::kOk);
  }
  for (uint64_t i = 1; i < 4; i++) {
    EXPECT_EQ(coordinator.ReassignTablet(kTable, i * kQuarter, i * kQuarter + (kQuarter - 1),
                                         cluster.master(i).id()),
              Status::kOk);
  }
  cluster.LoadTable(kTable, kControlRecords, 30, 100);

  const bool operations = kind == Scenario::kOperations;
  const Tick ops_stop = (operations ? 120 : 60) * kMillisecond;
  const Tick horizon = (operations ? 260 : 100) * kMillisecond;
  std::vector<std::string> hot_keys;  // Operations: master 0's quarter is hot.
  for (uint64_t i = 0; operations && i < kControlRecords; i++) {
    std::string key = Cluster::MakeKey(i, 30);
    if (HashKey(kTable, key) < kQuarter) {
      hot_keys.push_back(std::move(key));
    }
  }

  // Reads and durable writes, mostly to the hot keys (when there are any),
  // one op per kOpGap over all clients, each write to a key its client
  // owns, so the read-back can judge each key against one reference model.
  const ClientHistories histories = StartClientHistories(
      cluster, kTable, ops_stop,
      [&] {
        return [&](Random& rng, Tick) {
          std::string key = !hot_keys.empty() && rng.NextDouble() < 0.8
                                ? hot_keys[rng.Uniform(hot_keys.size())]
                                : Cluster::MakeKey(rng.Uniform(kControlRecords), 30);
          return YcsbWorkload::Op{.is_read = rng.NextDouble() >= kWriteFraction,
                                  .key = std::move(key)};
        };
      },
      [](Random&, Tick) { return kOpGap; }, ClientHistory::kUnbounded);

  LaneRun run;
  LaneDigest& digest = run.digest;
  coordinator.StartFailureDetector();

  std::unique_ptr<ClusterTelemetry> telemetry;
  std::unique_ptr<RebalancePlanner> planner;
  std::unique_ptr<RollingRestartOrchestrator> orchestrator;
  bool restart_done = false;
  if (operations) {
    // Hot spot on master 0 -> checked split + planner migration; then drain
    // master 3 (the planner evacuates it); then a rolling restart.
    telemetry = std::make_unique<ClusterTelemetry>(&cluster);
    RebalancerOptions options;
    options.min_imbalance_ops_per_sec = 1'000;
    options.migration_deadline_ns = 30 * kMillisecond;
    planner = std::make_unique<RebalancePlanner>(&cluster, options);
    planner->Start();
    orchestrator = std::make_unique<RollingRestartOrchestrator>(&cluster);
    cluster.AtSafePoint(70 * kMillisecond,
                        [&] { coordinator.BeginDrain(cluster.master(3).id()); });
    cluster.AtSafePoint(110 * kMillisecond,
                        [&] { orchestrator->Start([&] { restart_done = true; }); });
  } else {
    // Restart a recovered master one millisecond later: an operator action
    // on another node, posted from the coordinator's event as a safe-point
    // task. (In kOperations the orchestrator restarts its own victims.)
    coordinator.on_recovery_complete = [&](ServerId id) {
      digest.recoveries_completed++;
      Simulator& sim = coordinator.sim();
      sim.AtSafePoint(sim.now() + kMillisecond, [&, id] { coordinator.master(id)->Restart(); });
    };
    // A migration whose source crashes mid-flight, then one whose target
    // does; the detector finds both and recovery follows the lineage rule.
    const ServerId source = cluster.master(0).id();
    const ServerId target = cluster.master(3).id();
    cluster.AtSafePoint(10 * kMillisecond, [&] {
      StartRocksteadyMigration(&cluster, kTable, 0, kQuarter - 1, 0, 1, RocksteadyOptions{},
                               nullptr);
    });
    CrashMidMigration(
        cluster, 10 * kMillisecond,
        [&coordinator, source] { return coordinator.FindDependencyBySource(source).has_value(); },
        [&] {
          digest.lineage_crashes++;
          cluster.master(0).Crash();
        });
    cluster.AtSafePoint(40 * kMillisecond, [&] {
      StartRocksteadyMigration(&cluster, kTable, 2 * kQuarter, 3 * kQuarter - 1, 2, 3,
                               RocksteadyOptions{}, nullptr);
    });
    CrashMidMigration(
        cluster, 40 * kMillisecond,
        [&coordinator, target] { return coordinator.FindDependencyByTarget(target).has_value(); },
        [&] {
          digest.lineage_crashes++;
          cluster.master(3).Crash();
        });
  }

  cluster.RunUntil(horizon);
  if (planner != nullptr) {
    planner->Stop();
  }
  coordinator.StopFailureDetector();
  cluster.Run();

  AuditReport report;
  cluster.AuditInvariants(&report);
  EXPECT_TRUE(report.ok()) << report.Summary();
  cluster.net().SetFaultInjector(nullptr);
  const ReadBackResult lost =
      VerifyReadBack(cluster, kTable, LoadedKeys(kControlRecords), histories);
  EXPECT_EQ(lost.mismatches, 0u) << lost.detail;
  digest.lost_writes = lost.mismatches;

  run.windows = cluster.lanes()->windows_run();
  digest.trace_hash = cluster.trace_hash();
  digest.events = cluster.events_processed();
  digest.end_time = cluster.now();
  const OpCounts ops = CountOps(histories);
  digest.client_completed = ops.ok();
  digest.client_failed = ops.failed();
  digest.acked_writes = ops.acked_writes;
  digest.failed_writes = ops.failed_writes;
  digest.injected_drops = cluster.net().injected_drops();
  digest.retransmissions = cluster.rpc().retransmissions();
  digest.crashes_detected = coordinator.crashes_detected();
  digest.splits_performed = coordinator.splits_performed();
  digest.drains_completed = coordinator.drains_completed();
  if (planner != nullptr) {
    digest.planner_migrations = planner->stats().migrations_completed;
    digest.restarts_completed = restart_done ? orchestrator->stats().restarts_completed : 0;
  }
  coordinator.on_recovery_complete = nullptr;
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
    case Scenario::kRecovery:
      return "recovery";
    case Scenario::kOperations:
      return "operations";
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

// Recovery, the planner, drains and rolling restarts: every event touches
// only its own node, so they too run at any lane count with one trace.
class ControlPlaneLaneTest : public testing::TestWithParam<std::tuple<Scenario, uint64_t>> {};

TEST_P(ControlPlaneLaneTest, HashesIdenticalAcrossLaneCountsAndThreads) {
  const auto [kind, seed] = GetParam();
  const LaneRun single = RunControlScenario(kind, seed, 1, false);
  const LaneDigest& reference = single.digest;
  // The scenario's events actually happened, and no acked write was lost.
  EXPECT_GT(reference.acked_writes, 0u);
  EXPECT_EQ(reference.lost_writes, 0u);
  if (kind == Scenario::kRecovery) {
    EXPECT_EQ(reference.lineage_crashes, 2u);
    EXPECT_EQ(reference.crashes_detected, 2u);
    EXPECT_EQ(reference.recoveries_completed, 2u);
  } else {
    EXPECT_GE(reference.splits_performed, 1u);
    EXPECT_GE(reference.planner_migrations, 1u);
    EXPECT_EQ(reference.drains_completed, 1u);
    EXPECT_EQ(reference.restarts_completed, 3u);  // Every active master; master 3 drained.
  }
  for (const int lanes : {2, 4}) {
    const LaneRun unthreaded = RunControlScenario(kind, seed, lanes, false);
    EXPECT_EQ(unthreaded.digest, reference) << "lanes=" << lanes << " unthreaded diverged";
    const LaneRun threaded = RunControlScenario(kind, seed, lanes, true);
    EXPECT_EQ(threaded.digest, reference) << "lanes=" << lanes << " threaded diverged";
    EXPECT_EQ(threaded.windows, unthreaded.windows) << "lanes=" << lanes;
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
