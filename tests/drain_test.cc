// Tests for the drain/decommission protocol and the rolling-restart
// orchestrator: lifecycle transitions, planner-driven evacuation, RPC
// idempotency, and crash convergence when either side of a drain dies
// mid-evacuation.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/experiment_common.h"
#include "src/cluster/cluster.h"
#include "src/cluster/operations.h"
#include "src/common/audit.h"
#include "src/migration/rocksteady_target.h"
#include "src/rebalance/planner.h"

namespace rocksteady {
namespace {

constexpr TableId kTable = 1;

ClusterConfig SmallConfig(uint64_t seed = 42) {
  ClusterConfig config;
  config.num_masters = 4;
  config.num_clients = 2;
  config.seed = seed;
  config.master.hash_table_log2_buckets = 14;
  config.master.segment_size = 64 * 1024;
  return config;
}

// Runs the planner until `server` finishes draining (or the deadline hits).
void RunUntilDrained(Cluster& cluster, RebalancePlanner& planner, ServerId server,
                     Tick deadline = kSecond) {
  while (cluster.now() < deadline &&
         cluster.coordinator().lifecycle(server) == ServerLifecycle::kDraining) {
    cluster.RunUntil(cluster.now() + 5 * kMillisecond);
  }
  planner.Stop();
  cluster.coordinator().StopFailureDetector();
  cluster.Run();
}

uint64_t RangesOwnedBy(Cluster& cluster, ServerId id) {
  uint64_t owned = 0;
  for (const auto& entry : cluster.coordinator().GetAllTablets()) {
    owned += entry.owner == id ? 1 : 0;
  }
  return owned;
}

// ------------------------------------------------------ Lifecycle basics.

TEST(DrainTest, EmptyMasterDecommissionsImmediately) {
  Cluster cluster(SmallConfig());
  cluster.CreateTable(kTable, 0);  // Everything on master 1.
  const ServerId idle = cluster.master(3).id();
  EXPECT_EQ(cluster.coordinator().lifecycle(idle), ServerLifecycle::kActive);
  EXPECT_EQ(cluster.coordinator().BeginDrain(idle), Status::kOk);
  // Nothing to evacuate: the drain completes inline.
  EXPECT_EQ(cluster.coordinator().lifecycle(idle), ServerLifecycle::kDecommissioned);
  EXPECT_EQ(cluster.coordinator().drains_completed(), 1u);
}

TEST(DrainTest, DrainIsIdempotentAndActivateCancels) {
  Cluster cluster(SmallConfig());
  cluster.CreateTable(kTable, 0);
  const ServerId victim = cluster.master(0).id();  // Owns the whole table.
  EXPECT_EQ(cluster.coordinator().BeginDrain(victim), Status::kOk);
  EXPECT_EQ(cluster.coordinator().lifecycle(victim), ServerLifecycle::kDraining);
  cluster.Run();  // The master's latch travels by kSetDraining RPC.
  EXPECT_TRUE(cluster.master(0).draining());
  // Re-draining a draining server is a no-op, not a second drain.
  EXPECT_EQ(cluster.coordinator().BeginDrain(victim), Status::kOk);
  EXPECT_EQ(cluster.coordinator().drains_started(), 1u);
  // An operator can change their mind while tablets remain.
  EXPECT_EQ(cluster.coordinator().ActivateServer(victim), Status::kOk);
  EXPECT_EQ(cluster.coordinator().lifecycle(victim), ServerLifecycle::kActive);
  cluster.Run();
  EXPECT_FALSE(cluster.master(0).draining());
  EXPECT_EQ(cluster.coordinator().ActivateServer(victim), Status::kOk);  // Idempotent.
}

TEST(DrainTest, LastPlacementEligibleMasterRefusesDrain) {
  Cluster cluster(SmallConfig());
  cluster.CreateTable(kTable, 0);
  // Drain the three empty masters (each completes inline).
  EXPECT_EQ(cluster.coordinator().BeginDrain(cluster.master(1).id()), Status::kOk);
  EXPECT_EQ(cluster.coordinator().BeginDrain(cluster.master(2).id()), Status::kOk);
  EXPECT_EQ(cluster.coordinator().BeginDrain(cluster.master(3).id()), Status::kOk);
  // Draining the only remaining placement-eligible master would strand its
  // tablets with nowhere to go.
  EXPECT_EQ(cluster.coordinator().BeginDrain(cluster.master(0).id()),
            Status::kInvalidState);
  EXPECT_EQ(cluster.coordinator().lifecycle(cluster.master(0).id()),
            ServerLifecycle::kActive);
}

TEST(DrainTest, StandbyOwnsNothingAndCanActivate) {
  Cluster cluster(SmallConfig());
  cluster.CreateTable(kTable, 0);
  const ServerId spare = cluster.master(3).id();
  EXPECT_EQ(cluster.coordinator().MarkStandby(spare), Status::kOk);
  EXPECT_EQ(cluster.coordinator().lifecycle(spare), ServerLifecycle::kStandby);
  // A standby that owns a range is a contradiction; the request is refused.
  EXPECT_EQ(cluster.coordinator().MarkStandby(cluster.master(0).id()),
            Status::kInvalidState);
  EXPECT_EQ(cluster.coordinator().ActivateServer(spare), Status::kOk);
  EXPECT_EQ(cluster.coordinator().lifecycle(spare), ServerLifecycle::kActive);
  AuditReport report;
  cluster.coordinator().AuditInvariants(&report);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

// ----------------------------------------------------------- Drain RPCs.

TEST(DrainTest, DrainRpcsRoundTripAndAreIdempotent) {
  Cluster cluster(SmallConfig());
  cluster.CreateTable(kTable, 0);
  const ServerId victim = cluster.master(0).id();

  auto begin_drain = [&](ServerId id, Status* out) {
    auto request = std::make_unique<BeginDrainRequest>();
    request->server = id;
    cluster.rpc().Call(cluster.master(1).node(), cluster.coordinator().node(),
                       std::move(request),
                       [out](Status s, std::unique_ptr<RpcResponse> response) {
                         *out = s == Status::kOk ? response->status : s;
                       });
  };
  Status first = Status::kInvalidState;
  Status second = Status::kInvalidState;
  begin_drain(victim, &first);
  cluster.Run();
  begin_drain(victim, &second);  // Duplicate delivery of the same intent.
  cluster.Run();
  EXPECT_EQ(first, Status::kOk);
  EXPECT_EQ(second, Status::kOk);
  EXPECT_EQ(cluster.coordinator().drains_started(), 1u);

  // kDrainStatus reports the live lifecycle + work remaining.
  uint8_t lifecycle = 255;
  uint32_t tablets_remaining = 0;
  auto status_request = std::make_unique<DrainStatusRequest>();
  status_request->server = victim;
  cluster.rpc().Call(cluster.master(1).node(), cluster.coordinator().node(),
                     std::move(status_request),
                     [&](Status s, std::unique_ptr<RpcResponse> response) {
                       ASSERT_EQ(s, Status::kOk);
                       const auto& reply = static_cast<const DrainStatusResponse&>(*response);
                       lifecycle = reply.lifecycle;
                       tablets_remaining = reply.tablets_remaining;
                     });
  cluster.Run();
  EXPECT_EQ(lifecycle, static_cast<uint8_t>(ServerLifecycle::kDraining));
  EXPECT_EQ(tablets_remaining, 1u);  // The whole table, still unevacuated.

  // kActivateServer over the wire cancels the drain, idempotently.
  for (int i = 0; i < 2; i++) {
    Status activated = Status::kInvalidState;
    auto activate = std::make_unique<ActivateServerRequest>();
    activate->server = victim;
    cluster.rpc().Call(cluster.master(1).node(), cluster.coordinator().node(),
                       std::move(activate),
                       [&](Status s, std::unique_ptr<RpcResponse> response) {
                         activated = s == Status::kOk ? response->status : s;
                       });
    cluster.Run();
    EXPECT_EQ(activated, Status::kOk);
  }
  EXPECT_EQ(cluster.coordinator().lifecycle(victim), ServerLifecycle::kActive);
}

// ------------------------------------------------- Planner-driven drains.

TEST(DrainTest, PlannerEvacuatesDrainingMaster) {
  Cluster cluster(SmallConfig());
  EnableMigration(&cluster);
  cluster.CreateTable(kTable, 0);
  SpreadTableAcross(cluster, kTable, 4);
  cluster.LoadTable(kTable, 1'000, 30, 100);

  RebalancePlanner planner(&cluster);
  planner.Start();
  cluster.coordinator().StartFailureDetector();
  const ServerId victim = cluster.master(3).id();
  ASSERT_EQ(cluster.coordinator().BeginDrain(victim), Status::kOk);
  RunUntilDrained(cluster, planner, victim);

  EXPECT_EQ(cluster.coordinator().lifecycle(victim), ServerLifecycle::kDecommissioned);
  EXPECT_EQ(RangesOwnedBy(cluster, victim), 0u);
  EXPECT_GE(planner.stats().drain_migrations_completed, 1u);
  EXPECT_EQ(cluster.coordinator().drains_completed(), 1u);

  AuditReport report;
  cluster.coordinator().AuditInvariants(&report);
  EXPECT_TRUE(report.ok()) << report.Summary();

  // Every record is still readable after the evacuation moved its data.
  int ok = 0;
  for (int i = 0; i < 100; i++) {
    cluster.client(0).Read(kTable, Cluster::MakeKey(static_cast<uint64_t>(i * 7), 30),
                           [&](Status s, const std::string&) { ok += (s == Status::kOk); });
  }
  cluster.Run();
  EXPECT_EQ(ok, 100);
}

TEST(DrainTest, ConcurrentDrainsNeverTargetDrainingMasters) {
  Cluster cluster(SmallConfig());
  EnableMigration(&cluster);
  cluster.CreateTable(kTable, 0);
  SpreadTableAcross(cluster, kTable, 4);
  cluster.LoadTable(kTable, 1'000, 30, 100);

  RebalancePlanner planner(&cluster);
  planner.Start();
  cluster.coordinator().StartFailureDetector();
  const ServerId victim_a = cluster.master(2).id();
  const ServerId victim_b = cluster.master(3).id();
  ASSERT_EQ(cluster.coordinator().BeginDrain(victim_a), Status::kOk);
  ASSERT_EQ(cluster.coordinator().BeginDrain(victim_b), Status::kOk);
  RunUntilDrained(cluster, planner, victim_a);
  RunUntilDrained(cluster, planner, victim_b);

  EXPECT_EQ(cluster.coordinator().lifecycle(victim_a), ServerLifecycle::kDecommissioned);
  EXPECT_EQ(cluster.coordinator().lifecycle(victim_b), ServerLifecycle::kDecommissioned);
  // Every range ends on one of the two still-active masters: evacuations
  // never targeted a draining (or decommissioned) peer.
  for (const auto& entry : cluster.coordinator().GetAllTablets()) {
    EXPECT_TRUE(entry.owner == cluster.master(0).id() ||
                entry.owner == cluster.master(1).id())
        << "range landed on server " << entry.owner;
  }
  AuditReport report;
  cluster.coordinator().AuditInvariants(&report);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

// ---------------------------------------------------- Crash convergence.

TEST(DrainTest, MasterCrashMidDrainConvergesToDecommissioned) {
  Cluster cluster(SmallConfig());
  EnableMigration(&cluster);
  cluster.CreateTable(kTable, 0);
  SpreadTableAcross(cluster, kTable, 4);
  cluster.LoadTable(kTable, 1'000, 30, 100);

  RebalancePlanner planner(&cluster);
  planner.Start();
  cluster.coordinator().StartFailureDetector();
  const ServerId victim = cluster.master(3).id();
  ASSERT_EQ(cluster.coordinator().BeginDrain(victim), Status::kOk);
  // Kill the draining master while the evacuation is (likely) in flight.
  // The server is never restarted: recovery re-homes whatever the drain had
  // not yet moved, after which the empty drain converges to decommissioned
  // on the detector sweep.
  cluster.AtSafePoint(cluster.now() + 2 * kMillisecond, [&] { cluster.master(3).Crash(); });
  RunUntilDrained(cluster, planner, victim);

  EXPECT_EQ(cluster.coordinator().lifecycle(victim), ServerLifecycle::kDecommissioned);
  EXPECT_EQ(RangesOwnedBy(cluster, victim), 0u);
  EXPECT_TRUE(cluster.coordinator().dependencies().empty());

  AuditReport report;
  cluster.AuditInvariants(&report);  // Master 3 stays crashed.
  EXPECT_TRUE(report.ok()) << report.Summary();

  int ok = 0;
  for (int i = 0; i < 100; i++) {
    cluster.client(0).Read(kTable, Cluster::MakeKey(static_cast<uint64_t>(i * 7), 30),
                           [&](Status s, const std::string&) { ok += (s == Status::kOk); });
  }
  cluster.Run();
  EXPECT_EQ(ok, 100);
}

TEST(DrainTest, CoordinatorCrashMidDrainResumesFromPersistedFlag) {
  Cluster cluster(SmallConfig());
  EnableMigration(&cluster);
  cluster.CreateTable(kTable, 0);
  SpreadTableAcross(cluster, kTable, 4);
  cluster.LoadTable(kTable, 1'000, 30, 100);

  RebalancePlanner planner(&cluster);
  planner.Start();
  cluster.coordinator().StartFailureDetector();
  const ServerId victim = cluster.master(3).id();
  ASSERT_EQ(cluster.coordinator().BeginDrain(victim), Status::kOk);
  // Coordinator goes down mid-drain. The lifecycle table is part of the
  // quorum-replicated metadata, so the restart resumes the drain rather
  // than forgetting it.
  cluster.AtSafePoint(cluster.now() + kMillisecond, [&] { cluster.coordinator().Crash(); });
  cluster.AtSafePoint(cluster.now() + 6 * kMillisecond, [&] {
    cluster.coordinator().Restart();
    EXPECT_EQ(cluster.coordinator().lifecycle(victim), ServerLifecycle::kDraining);
    EXPECT_TRUE(cluster.master(3).draining());  // Master-side latch survived too.
  });
  RunUntilDrained(cluster, planner, victim);

  EXPECT_EQ(cluster.coordinator().lifecycle(victim), ServerLifecycle::kDecommissioned);
  EXPECT_EQ(RangesOwnedBy(cluster, victim), 0u);
  AuditReport report;
  cluster.coordinator().AuditInvariants(&report);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(DrainTest, DrainingMasterRejectsInboundMigration) {
  Cluster cluster(SmallConfig());
  EnableMigration(&cluster);
  cluster.CreateTable(kTable, 0);
  SpreadTableAcross(cluster, kTable, 4);
  cluster.LoadTable(kTable, 200, 30, 100);
  ASSERT_EQ(cluster.coordinator().BeginDrain(cluster.master(3).id()), Status::kOk);
  cluster.Run();  // The master's latch travels by kSetDraining RPC.
  // An operator's migration *into* the draining master must bounce.
  const TabletConfigEntry first = cluster.coordinator().GetTableConfig(kTable).front();
  std::optional<MigrationStats> stats;
  StartRocksteadyMigration(&cluster, kTable, first.start_hash, first.end_hash, 0, 3,
                           RocksteadyOptions{}, [&](const MigrationStats& s) { stats = s; });
  cluster.Run();
  // The migration never commits ownership to the draining target.
  EXPECT_EQ(cluster.coordinator().OwnerOf(kTable, 0), cluster.master(0).id());
  EXPECT_EQ(RangesOwnedBy(cluster, cluster.master(3).id()), 1u);  // Only its original quarter.
}

// ------------------------------------------------------ Rolling restart.

TEST(RollingRestartTest, CyclesEveryActiveMasterOnce) {
  Cluster cluster(SmallConfig());
  EnableMigration(&cluster);
  cluster.CreateTable(kTable, 0);
  SpreadTableAcross(cluster, kTable, 4);
  cluster.LoadTable(kTable, 1'000, 30, 100);

  RollingRestartOrchestrator orchestrator(&cluster);
  bool done = false;
  orchestrator.Start([&] { done = true; });
  EXPECT_TRUE(cluster.coordinator().failure_detector_running());
  cluster.RunUntil(2 * kSecond);
  cluster.coordinator().StopFailureDetector();
  cluster.Run();

  EXPECT_TRUE(done);
  EXPECT_FALSE(orchestrator.running());
  EXPECT_EQ(orchestrator.stats().restarts_started, 4u);
  EXPECT_EQ(orchestrator.stats().restarts_completed, 4u);
  EXPECT_EQ(orchestrator.stats().skipped, 0u);
  for (size_t i = 0; i < cluster.num_masters(); i++) {
    EXPECT_FALSE(cluster.master(i).crashed());
  }

  AuditReport report;
  cluster.AuditInvariants(&report);
  EXPECT_TRUE(report.ok()) << report.Summary();

  // The restarts re-homed every quarter; all data still served.
  int ok = 0;
  for (int i = 0; i < 100; i++) {
    cluster.client(0).Read(kTable, Cluster::MakeKey(static_cast<uint64_t>(i * 7), 30),
                           [&](Status s, const std::string&) { ok += (s == Status::kOk); });
  }
  cluster.Run();
  EXPECT_EQ(ok, 100);
}

TEST(RollingRestartTest, SkipsNonActiveMasters) {
  Cluster cluster(SmallConfig());
  cluster.CreateTable(kTable, 0);  // Only master 1 owns anything.
  ASSERT_EQ(cluster.coordinator().MarkStandby(cluster.master(3).id()), Status::kOk);

  RollingRestartOrchestrator orchestrator(&cluster);
  bool done = false;
  orchestrator.Start([&] { done = true; });
  cluster.RunUntil(2 * kSecond);
  cluster.coordinator().StopFailureDetector();
  cluster.Run();

  EXPECT_TRUE(done);
  EXPECT_EQ(orchestrator.stats().restarts_completed, 3u);
  EXPECT_EQ(orchestrator.stats().skipped, 1u);  // The standby was left alone.
  EXPECT_EQ(cluster.coordinator().lifecycle(cluster.master(3).id()),
            ServerLifecycle::kStandby);
}

}  // namespace
}  // namespace rocksteady
