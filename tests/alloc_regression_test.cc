// Allocation regression tests for the engine hot path.
//
// The overhaul's contract is that steady-state event churn is fed entirely
// from pools: the simulator's event slab pool satisfies every schedule from
// its free list, and every hot-path closure fits its InlineFunction buffer.
// These tests pin that down with hard zeros over a measured event window,
// so a regression (a widened closure, a pool leak, a new per-event
// allocation in the pure dispatch loop) fails CI instead of quietly eating
// the 2x throughput win.
//
// This binary links tests/alloc_hook.cc, which replaces global operator
// new/delete with counting wrappers — a whole-binary decision no other test
// opts into (see tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "bench/client_history.h"
#include "src/cluster/cluster.h"
#include "src/common/inline_function.h"
#include "tests/alloc_hook.h"

namespace rocksteady {
namespace {

constexpr TableId kTable = 1;
// A few unfinished calls per caller; a master remembering 100 ms of calls
// would hold 300-7,700 entries in the test below.
constexpr size_t kMaxDedupEntries = 32;

// A self-rescheduling timer chain: the pure-dispatch load with zero
// application work (same shape as bench/engine_throughput.cc's dispatch
// scenario).
class Chain {
 public:
  Chain(Simulator* sim, Tick period) : sim_(sim), period_(period) {}

  void Start(Tick at) {
    sim_->At(at, [this] { Step(); });
  }

 private:
  void Step() {
    sim_->At(sim_->now() + period_, [this] { Step(); });
  }

  Simulator* sim_;
  Tick period_;
};

// YCSB-B over the 4,000 loaded records from both clients, 75k ops/s each,
// running past the end of every test below.
ClientHistories StartYcsbLoad(Cluster& cluster) {
  return StartClientHistories(cluster, kTable, kSecond, YcsbBChoice(4'000),
                              PoissonGap(150'000), ClientHistory::kUnbounded);
}

TEST(AllocRegressionTest, PureEventLoopIsAllocationFreeInSteadyState) {
  Simulator sim;
  std::vector<std::unique_ptr<Chain>> chains;
  for (int i = 0; i < 32; i++) {
    chains.push_back(std::make_unique<Chain>(&sim, /*period=*/100));
    chains.back()->Start(static_cast<Tick>(i));
  }
  // Warm-up: first dispatches allocate the event slab(s).
  sim.RunUntil(100 * kMicrosecond);

  const uint64_t allocs_before = GlobalAllocCount();
  const uint64_t slabs_before = sim.pool_stats().slab_allocations;
  const size_t events_before = sim.events_processed();
  sim.RunUntil(200 * kMicrosecond);
  const size_t events = sim.events_processed() - events_before;

  ASSERT_GT(events, 10'000u);  // The window really exercised the loop.
  // Hard zero: schedule -> dispatch -> free touches no allocator at all.
  EXPECT_EQ(GlobalAllocCount() - allocs_before, 0u);
  EXPECT_EQ(sim.pool_stats().slab_allocations - slabs_before, 0u);
}

TEST(AllocRegressionTest, YcsbSteadyWindowHasZeroPoolMissedAllocations) {
  // Steady-state YCSB-B against 4 masters through the full RPC stack. After
  // warm-up, a >=10k-event window must show zero event-slab growth and zero
  // InlineFunction heap fallbacks: every pooled structure is recycled and
  // every hot-path closure stays inline. (Intrinsic per-op allocations —
  // request/response message objects — are measured and budgeted by
  // bench/engine_throughput.cc, not asserted here.)
  ClusterConfig config;
  config.num_masters = 4;
  config.num_clients = 2;
  config.seed = 42;
  config.master.hash_table_log2_buckets = 15;
  Cluster cluster(config);
  cluster.CreateTable(kTable, 0);
  cluster.LoadTable(kTable, /*num_records=*/4'000, /*key_length=*/30, /*value_length=*/100);

  const ClientHistories histories = StartYcsbLoad(cluster);

  // Warm-up: pools (event slabs, client retry states, server scratch) reach
  // their steady-state footprint.
  cluster.RunUntil(20 * kMillisecond);

  const uint64_t slabs_before = cluster.lanes()->lane_sim(0).pool_stats().slab_allocations;
  const uint64_t fallbacks_before = InlineFunctionHeapFallbacks();
  const size_t events_before = cluster.events_processed();
  cluster.RunUntil(40 * kMillisecond);
  const size_t events = cluster.events_processed() - events_before;

  ASSERT_GT(events, 10'000u);  // The steady window covers >=10k events.
  ASSERT_GT(CountOps(histories).reads_ok, 0u);
  EXPECT_EQ(cluster.lanes()->lane_sim(0).pool_stats().slab_allocations - slabs_before, 0u);
  EXPECT_EQ(InlineFunctionHeapFallbacks() - fallbacks_before, 0u);

  // Each master's duplicate-suppression state covers only the calls its
  // callers have not finished (first-incomplete watermarks).
  for (Tick t = 41 * kMillisecond; t <= 50 * kMillisecond; t += kMillisecond) {
    cluster.RunUntil(t);
    for (size_t m = 0; m < cluster.num_masters(); m++) {
      EXPECT_LE(cluster.master(m).endpoint().dedup_size(), kMaxDedupEntries) << "master " << m;
    }
  }
}

TEST(AllocRegressionTest, ThreadedLaneSteadyWindowHasZeroSlabGrowthPerLane) {
  // The sharded-lane contract extends the steady-state zeros per lane: each
  // lane's event pool recycles its own events (a cross-lane delivery's Event
  // object is allocated from and freed to the *destination* lane's pool, so
  // no event ever crosses an allocator boundary), and every lane-mode hot
  // path closure — mailbox entries included — stays inline. RunUntil parks
  // the workers at a barrier before returning, so reading the per-lane pool
  // stats here races nothing.
  ClusterConfig config;
  config.num_masters = 4;
  config.num_clients = 2;
  config.seed = 42;
  config.master.hash_table_log2_buckets = 15;
  config.lanes = 4;
  config.lane_threads = true;
  Cluster cluster(config);
  cluster.CreateTable(kTable, 0);
  cluster.LoadTable(kTable, /*num_records=*/4'000, /*key_length=*/30, /*value_length=*/100);

  const ClientHistories histories = StartYcsbLoad(cluster);

  LaneSet* lanes = cluster.lanes();
  ASSERT_NE(lanes, nullptr);

  // Warm-up: per-lane pools reach their steady-state footprint.
  cluster.RunUntil(20 * kMillisecond);

  std::vector<uint64_t> slabs_before;
  std::vector<uint64_t> outstanding_before;  // live + free: lane pool population.
  for (int l = 0; l < lanes->lanes(); l++) {
    const Simulator::PoolStats stats = lanes->lane_sim(l).pool_stats();
    slabs_before.push_back(stats.slab_allocations);
    outstanding_before.push_back(stats.live_events + stats.free_events);
  }
  const uint64_t fallbacks_before = InlineFunctionHeapFallbacks();
  const size_t events_before = cluster.events_processed();
  cluster.RunUntil(40 * kMillisecond);
  const size_t events = cluster.events_processed() - events_before;

  ASSERT_GT(events, 10'000u);
  ASSERT_GT(CountOps(histories).reads_ok, 0u);
  for (int l = 0; l < lanes->lanes(); l++) {
    const Simulator::PoolStats stats = lanes->lane_sim(l).pool_stats();
    // Zero slab growth on every lane individually — a lane leaking events to
    // another lane's free list would eventually grow its own slabs.
    EXPECT_EQ(stats.slab_allocations - slabs_before[static_cast<size_t>(l)], 0u)
        << "lane " << l << " grew its event slab pool";
    // Pool-population conservation: events allocated on this lane were freed
    // back to this lane (zero cross-lane allocator traffic).
    EXPECT_EQ(stats.live_events + stats.free_events,
              outstanding_before[static_cast<size_t>(l)])
        << "lane " << l << " pool population drifted";
  }
  EXPECT_EQ(InlineFunctionHeapFallbacks() - fallbacks_before, 0u);
}

}  // namespace
}  // namespace rocksteady
