// Unit tests for the discrete-event kernel: event ordering, the
// dispatch/worker core model (priorities, non-preemption, crash semantics),
// and the bandwidth-limited network.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/sim/core_set.h"
#include "src/sim/cost_model.h"
#include "src/sim/lane_set.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"

namespace rocksteady {
namespace {

// -------------------------------------------------------------- Simulator.

TEST(SimulatorTest, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.At(300, [&] { order.push_back(3); });
  sim.At(100, [&] { order.push_back(1); });
  sim.At(200, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 300u);
}

TEST(SimulatorTest, EqualTimeEventsAreFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; i++) {
    sim.At(50, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; i++) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(SimulatorTest, EventsCanScheduleEvents) {
  Simulator sim;
  int fired = 0;
  sim.At(10, [&] {
    fired++;
    sim.After(5, [&] { fired++; });
  });
  sim.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 15u);
}

TEST(SimulatorTest, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.At(10, [&] { fired++; });
  sim.At(20, [&] { fired++; });
  sim.RunUntil(15);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 15u);
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(LaneSetTest, NodeRngIsDeterministicPerSeedAndPlacementFree) {
  // Randomness lives in per-node streams: the same seed gives the same
  // draws, and a node's stream does not depend on which lane it sits on.
  auto draws = [](uint64_t seed, int lanes) {
    LaneSet set(LaneSet::Config{.lanes = lanes, .seed = seed});
    std::vector<uint64_t> out;
    for (NodeId node = 0; node < 4; node++) {
      set.AssignNode(node, static_cast<int>(node) % lanes);
      out.push_back(set.NodeRng(node).Next());
    }
    return out;
  };
  EXPECT_EQ(draws(99, 1), draws(99, 1));
  EXPECT_EQ(draws(99, 1), draws(99, 4));
  EXPECT_NE(draws(99, 1), draws(100, 1));
  EXPECT_NE(draws(99, 1)[0], draws(99, 1)[1]);  // Streams differ per node.
}

#if ROCKSTEADY_DCHECK_ENABLED

TEST(SimulatorDeathTest, SchedulingInThePastIsFatal) {
  Simulator sim;
  sim.At(100, [] {});
  sim.RunUntil(100);
  EXPECT_DEATH(sim.At(50, [] {}), "t >= now_");
}

TEST(SimulatorDeathTest, RunUntilPastIsFatal) {
  Simulator sim;
  sim.RunUntil(100);
  EXPECT_DEATH(sim.RunUntil(50), "t >= now_");
}

#else  // !ROCKSTEADY_DCHECK_ENABLED

TEST(SimulatorTest, SchedulingInThePastClampsToNow) {
  // Release builds clamp instead of aborting: the event runs at now(), and
  // critically it runs *after* work already queued for the current tick —
  // it must not jump the FIFO order.
  Simulator sim;
  std::vector<int> order;
  sim.At(100, [&] {
    sim.At(100, [&] { order.push_back(1); });
    sim.At(40, [&] { order.push_back(2); });  // Past: clamped to 100.
  });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.now(), 100u);
}

TEST(SimulatorTest, RunUntilPastIsNoOp) {
  Simulator sim;
  int fired = 0;
  sim.At(10, [&] { fired++; });
  sim.RunUntil(100);
  EXPECT_EQ(sim.now(), 100u);
  EXPECT_EQ(sim.RunUntil(50), 0u);  // Clock never rewinds.
  EXPECT_EQ(sim.now(), 100u);
  EXPECT_EQ(fired, 1);
}

#endif  // ROCKSTEADY_DCHECK_ENABLED

TEST(SimulatorTest, TraceHashMatchesForIdenticalRuns) {
  auto run = [] {
    Simulator sim;
    Random rng(7);
    for (int i = 0; i < 50; i++) {
      sim.After(rng.Uniform(1'000), [&sim, &rng] {
        if (rng.Uniform(4) == 0) {
          sim.After(10, [] {});
        }
      });
    }
    sim.Run();
    return sim.trace_hash();
  };
  const uint64_t first = run();
  EXPECT_EQ(first, run());
}

TEST(SimulatorTest, TraceHashDetectsDivergence) {
  Simulator a;
  Simulator b;
  a.At(10, [] {});
  b.At(11, [] {});  // Same structure, different timing.
  a.Run();
  b.Run();
  EXPECT_NE(a.trace_hash(), b.trace_hash());
}

// ---------------------------------------------------------------- CoreSet.

TEST(CoreSetTest, DispatchSerializes) {
  Simulator sim;
  CoreSet cores(&sim, 2);
  std::vector<Tick> times;
  cores.EnqueueDispatch(100, [&] { times.push_back(sim.now()); });
  cores.EnqueueDispatch(100, [&] { times.push_back(sim.now()); });
  sim.Run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_EQ(times[0], 100u);
  EXPECT_EQ(times[1], 200u);  // Second waits for the first.
}

TEST(CoreSetTest, IdleWorkerRunsImmediately) {
  Simulator sim;
  CoreSet cores(&sim, 2);
  Tick done_at = 0;
  cores.EnqueueWorker({Priority::kClient, [] { return Tick{500}; },
                       [&] { done_at = sim.now(); }});
  sim.Run();
  EXPECT_EQ(done_at, 500u);
}

TEST(CoreSetTest, TasksQueueWhenWorkersBusy) {
  Simulator sim;
  CoreSet cores(&sim, 1);
  std::vector<Tick> completions;
  for (int i = 0; i < 3; i++) {
    cores.EnqueueWorker({Priority::kClient, [] { return Tick{100}; },
                         [&] { completions.push_back(sim.now()); }});
  }
  sim.Run();
  EXPECT_EQ(completions, (std::vector<Tick>{100, 200, 300}));
}

TEST(CoreSetTest, StrictPriorityOrdering) {
  Simulator sim;
  CoreSet cores(&sim, 1);
  std::vector<std::string> order;
  // Fill the only worker, then queue low before high; high must run first.
  cores.EnqueueWorker({Priority::kClient, [] { return Tick{100}; }, {}});
  cores.EnqueueWorker(
      {Priority::kMigration, [] { return Tick{10}; }, [&] { order.push_back("migration"); }});
  cores.EnqueueWorker(
      {Priority::kClient, [] { return Tick{10}; }, [&] { order.push_back("client"); }});
  cores.EnqueueWorker({Priority::kPriorityPull, [] { return Tick{10}; },
                       [&] { order.push_back("priority_pull"); }});
  sim.Run();
  EXPECT_EQ(order,
            (std::vector<std::string>{"priority_pull", "client", "migration"}));
}

TEST(CoreSetTest, NonPreemptive) {
  // A long low-priority task started before a high-priority arrival is not
  // interrupted (§3.1: running tasks are never preempted).
  Simulator sim;
  CoreSet cores(&sim, 1);
  std::vector<std::string> order;
  cores.EnqueueWorker(
      {Priority::kMigration, [] { return Tick{10'000}; }, [&] { order.push_back("long_low"); }});
  sim.At(100, [&] {
    cores.EnqueueWorker(
        {Priority::kClient, [] { return Tick{10}; }, [&] { order.push_back("high"); }});
  });
  sim.Run();
  EXPECT_EQ(order, (std::vector<std::string>{"long_low", "high"}));
}

TEST(CoreSetTest, ParallelWorkers) {
  Simulator sim;
  CoreSet cores(&sim, 4);
  int done = 0;
  for (int i = 0; i < 4; i++) {
    cores.EnqueueWorker({Priority::kClient, [] { return Tick{100}; }, [&] { done++; }});
  }
  sim.Run();
  EXPECT_EQ(done, 4);
  EXPECT_EQ(sim.now(), 100u);  // All four ran concurrently.
}

TEST(CoreSetTest, WorkRunsAtStartTime) {
  // The work() closure runs when the task is picked up, not at completion.
  Simulator sim;
  CoreSet cores(&sim, 1);
  Tick work_ran_at = ~0ull;
  cores.EnqueueWorker({Priority::kClient, [] { return Tick{100}; }, {}});
  cores.EnqueueWorker({Priority::kClient,
                       [&] {
                         work_ran_at = sim.now();
                         return Tick{50};
                       },
                       {}});
  sim.Run();
  EXPECT_EQ(work_ran_at, 100u);
}

TEST(CoreSetTest, UtilizationAccounting) {
  Simulator sim;
  CoreSet cores(&sim, 2);
  UtilizationTimeline util(1'000, 4);
  cores.set_worker_util(&util);
  cores.EnqueueWorker({Priority::kClient, [] { return Tick{1'000}; }, {}});
  cores.EnqueueWorker({Priority::kClient, [] { return Tick{500}; }, {}});
  sim.Run();
  EXPECT_DOUBLE_EQ(util.ActiveCores(0), 1.5);
  EXPECT_EQ(cores.total_worker_busy(), 1'500u);
}

TEST(CoreSetTest, HaltDropsQueuedWork) {
  Simulator sim;
  CoreSet cores(&sim, 1);
  int done = 0;
  cores.EnqueueWorker({Priority::kClient, [] { return Tick{100}; }, [&] { done++; }});
  cores.EnqueueWorker({Priority::kClient, [] { return Tick{100}; }, [&] { done++; }});
  sim.At(50, [&] { cores.Halt(); });
  sim.Run();
  // First task was in flight at Halt(): its completion is stale; second was
  // queued: dropped.
  EXPECT_EQ(done, 0);
}

TEST(CoreSetTest, RestartAcceptsNewWork) {
  Simulator sim;
  CoreSet cores(&sim, 1);
  int done = 0;
  cores.Halt();
  cores.EnqueueWorker({Priority::kClient, [] { return Tick{10}; }, [&] { done++; }});
  sim.Run();
  EXPECT_EQ(done, 0);
  cores.Restart();
  cores.EnqueueWorker({Priority::kClient, [] { return Tick{10}; }, [&] { done++; }});
  sim.Run();
  EXPECT_EQ(done, 1);
}

// ---------------------------------------------------------------- Network.

TEST(NetworkTest, DeliveryIncludesSerializationAndPropagation) {
  LaneSet lanes(LaneSet::Config{});
  Simulator& sim = lanes.lane_sim(0);  // In-event clock.
  CostModel costs;
  costs.net_bandwidth_bps = 1e9;  // 1 GB/s for round numbers.
  costs.net_propagation_ns = 1'000;
  costs.net_per_message_ns = 0;
  Network net(&lanes, &costs);
  const NodeId a = net.AddNode();
  const NodeId b = net.AddNode();
  Tick delivered_at = 0;
  net.Send(a, b, 1'000, [&] { delivered_at = sim.now(); });  // 1 KB at 1 GB/s = 1 us.
  lanes.Run();
  EXPECT_EQ(delivered_at, 2'000u);  // 1 us serialization + 1 us propagation.
}

TEST(NetworkTest, EgressLinkSerializesMessages) {
  LaneSet lanes(LaneSet::Config{});
  Simulator& sim = lanes.lane_sim(0);  // In-event clock.
  CostModel costs;
  costs.net_bandwidth_bps = 1e9;
  costs.net_propagation_ns = 0;
  costs.net_per_message_ns = 0;
  Network net(&lanes, &costs);
  const NodeId a = net.AddNode();
  const NodeId b = net.AddNode();
  std::vector<Tick> deliveries;
  for (int i = 0; i < 3; i++) {
    net.Send(a, b, 1'000, [&] { deliveries.push_back(sim.now()); });
  }
  lanes.Run();
  EXPECT_EQ(deliveries, (std::vector<Tick>{1'000, 2'000, 3'000}));
}

TEST(NetworkTest, DistinctSourcesDontShareEgress) {
  LaneSet lanes(LaneSet::Config{});
  Simulator& sim = lanes.lane_sim(0);  // In-event clock.
  CostModel costs;
  costs.net_bandwidth_bps = 1e9;
  costs.net_propagation_ns = 0;
  costs.net_per_message_ns = 0;
  Network net(&lanes, &costs);
  const NodeId a = net.AddNode();
  const NodeId b = net.AddNode();
  const NodeId c = net.AddNode();
  std::vector<Tick> deliveries;
  net.Send(a, c, 1'000, [&] { deliveries.push_back(sim.now()); });
  net.Send(b, c, 1'000, [&] { deliveries.push_back(sim.now()); });
  lanes.Run();
  EXPECT_EQ(deliveries, (std::vector<Tick>{1'000, 1'000}));
}

TEST(NetworkTest, DownNodeDropsTraffic) {
  LaneSet lanes(LaneSet::Config{});
  CostModel costs;
  Network net(&lanes, &costs);
  const NodeId a = net.AddNode();
  const NodeId b = net.AddNode();
  int delivered = 0;
  net.SetNodeDown(b, true);
  net.Send(a, b, 100, [&] { delivered++; });
  lanes.Run();
  EXPECT_EQ(delivered, 0);
  net.SetNodeDown(b, false);
  net.Send(a, b, 100, [&] { delivered++; });
  lanes.Run();
  EXPECT_EQ(delivered, 1);
}

TEST(NetworkTest, InFlightMessagesToCrashedNodeDropped) {
  LaneSet lanes(LaneSet::Config{});
  CostModel costs;
  Network net(&lanes, &costs);
  const NodeId a = net.AddNode();
  const NodeId b = net.AddNode();
  int delivered = 0;
  net.Send(a, b, 1'000'000, [&] { delivered++; });  // In flight for a while.
  lanes.AtSafePoint(1, [&] { net.SetNodeDown(b, true); });
  lanes.Run();
  EXPECT_EQ(delivered, 0);
}

TEST(NetworkTest, ByteAccounting) {
  LaneSet lanes(LaneSet::Config{});
  CostModel costs;
  Network net(&lanes, &costs);
  const NodeId a = net.AddNode();
  const NodeId b = net.AddNode();
  net.Send(a, b, 100, [] {});
  net.Send(b, a, 250, [] {});
  lanes.Run();
  EXPECT_EQ(net.total_bytes_sent(), 350u);
  EXPECT_EQ(net.total_messages(), 2u);
}

// -------------------------------------------------------------- CostModel.

TEST(CostModelTest, SerializationScalesWithBytes) {
  CostModel costs;
  EXPECT_EQ(costs.Serialization(0), 0u);
  // 5 GB/s: 5,000 bytes take 1 us.
  EXPECT_EQ(costs.Serialization(5'000), 1'000u);
}

TEST(CostModelTest, ReplayCostExceedsPullCost) {
  // Figure 15: target replay is 1.8-2.4x more expensive than source pull
  // processing for small records.
  CostModel costs;
  const size_t records = 100;
  const size_t bytes = records * 128;
  const double ratio = static_cast<double>(costs.ReplayCost(records, bytes)) /
                       static_cast<double>(costs.PullCost(records, bytes));
  EXPECT_GT(ratio, 1.5);
  EXPECT_LT(ratio, 2.6);
}

TEST(CostModelTest, SourceSideScalabilityMatchesPaper) {
  // 16 cores' worth of pull processing should move roughly 5.7 GB/s of
  // 128 B records (Figure 15), and replay about 3 GB/s.
  CostModel costs;
  const size_t records_per_batch = 145;  // ~20 KB batches, 128 B payloads.
  const size_t batch_bytes = records_per_batch * 138;
  const double pull_ns = static_cast<double>(costs.PullCost(records_per_batch, batch_bytes));
  const double pull_rate_16 = 16.0 * batch_bytes / pull_ns;  // GB/s.
  EXPECT_GT(pull_rate_16, 4.5);
  EXPECT_LT(pull_rate_16, 7.5);
  const double replay_ns = static_cast<double>(costs.ReplayCost(records_per_batch, batch_bytes));
  const double replay_rate_16 = 16.0 * batch_bytes / replay_ns;
  EXPECT_GT(replay_rate_16, 2.2);
  EXPECT_LT(replay_rate_16, 4.0);
}


TEST(CoreSetTest, HeldTaskOccupiesWorkerUntilFinished) {
  Simulator sim;
  CoreSet cores(&sim, 1);
  std::vector<std::string> order;
  std::function<void(Tick)> finish_held;
  cores.EnqueueWorkerHeld({Priority::kClient, [&](std::function<void(Tick)> finish) {
                             finish_held = std::move(finish);
                           }});
  // Another task queues behind the held worker.
  cores.EnqueueWorker(
      {Priority::kClient, [] { return Tick{10}; }, [&] { order.push_back("queued"); }});
  sim.Run();
  EXPECT_TRUE(order.empty());  // Still held.
  // Release with 100 ns of trailing work.
  sim.After(0, [&] { finish_held(100); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<std::string>{"queued"}));
}

TEST(CoreSetTest, HeldTaskChargesBusyTime) {
  Simulator sim;
  CoreSet cores(&sim, 1);
  std::function<void(Tick)> finish_held;
  cores.EnqueueWorkerHeld({Priority::kClient, [&](std::function<void(Tick)> finish) {
                             finish_held = std::move(finish);
                           }});
  sim.At(500, [&] { finish_held(250); });
  sim.Run();
  EXPECT_EQ(cores.total_worker_busy(), 750u);  // Held 0..500 plus 250 extra.
}

TEST(CoreSetTest, HaltCancelsHeldTask) {
  Simulator sim;
  CoreSet cores(&sim, 1);
  std::function<void(Tick)> finish_held;
  cores.EnqueueWorkerHeld({Priority::kClient, [&](std::function<void(Tick)> finish) {
                             finish_held = std::move(finish);
                           }});
  cores.Halt();
  sim.At(10, [&] { finish_held(0); });  // Stale epoch: must be ignored.
  sim.Run();
  cores.Restart();
  int ran = 0;
  cores.EnqueueWorker({Priority::kClient, [] { return Tick{1}; }, [&] { ran++; }});
  sim.Run();
  EXPECT_EQ(ran, 1);
}

TEST(NetworkTest, SmallMessagesBypassBulkQueue) {
  // A tiny response must not wait behind a large bulk transfer on the same
  // egress (packet interleaving, §2.4's transport-integration point).
  LaneSet lanes(LaneSet::Config{});
  Simulator& sim = lanes.lane_sim(0);  // In-event clock.
  CostModel costs;
  costs.net_bandwidth_bps = 1e9;
  costs.net_propagation_ns = 0;
  costs.net_per_message_ns = 0;
  Network net(&lanes, &costs);
  const NodeId a = net.AddNode();
  const NodeId b = net.AddNode();
  Tick bulk_at = 0;
  Tick small_at = 0;
  net.Send(a, b, 1'000'000, [&] { bulk_at = sim.now(); });  // 1 ms of serialization.
  net.Send(a, b, 100, [&] { small_at = sim.now(); });
  lanes.Run();
  EXPECT_LT(small_at, 10'000u);     // Did not wait for the bulk message.
  EXPECT_GE(bulk_at, 1'000'000u);   // Bulk paid its full serialization.
}

TEST(NetworkTest, BulkMessagesStillQueueTogether) {
  LaneSet lanes(LaneSet::Config{});
  Simulator& sim = lanes.lane_sim(0);  // In-event clock.
  CostModel costs;
  costs.net_bandwidth_bps = 1e9;
  costs.net_propagation_ns = 0;
  costs.net_per_message_ns = 0;
  Network net(&lanes, &costs);
  const NodeId a = net.AddNode();
  const NodeId b = net.AddNode();
  std::vector<Tick> deliveries;
  for (int i = 0; i < 3; i++) {
    net.Send(a, b, 100'000, [&] { deliveries.push_back(sim.now()); });
  }
  lanes.Run();
  EXPECT_EQ(deliveries, (std::vector<Tick>{100'000, 200'000, 300'000}));
}

TEST(CostModelTest, DilationPreservesUtilizationRatios) {
  CostModel base;
  CostModel dilated = base;
  dilated.Dilate(10.0);
  EXPECT_EQ(dilated.dispatch_per_rpc_ns, base.dispatch_per_rpc_ns * 10);
  EXPECT_DOUBLE_EQ(dilated.net_bandwidth_bps, base.net_bandwidth_bps / 10.0);
  // Cost x rate products (utilization) are invariant.
  EXPECT_EQ(dilated.ReadCost(100), base.ReadCost(100) * 10);
  EXPECT_EQ(dilated.Serialization(5'000), base.Serialization(5'000) * 10);
}

}  // namespace
}  // namespace rocksteady
