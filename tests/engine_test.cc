// Unit tests for the hot-path engine primitives introduced by the
// performance overhaul: the calendar-queue event loop and its slab pool
// (src/sim/simulator.h), InlineFunction (src/common/inline_function.h),
// FlatMap64 (src/common/flat_map.h), and the FaultInjector's flat per-link
// tables. These pin down the behaviors the overhaul must preserve —
// (time, key) dispatch order, FIFO ties, zero-allocation steady state, and
// deterministic draw sequences — independently of the full-cluster tests.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/flat_map.h"
#include "src/common/inline_function.h"
#include "src/sim/cost_model.h"
#include "src/sim/fault_injector.h"
#include "src/sim/lane_set.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"

namespace rocksteady {
namespace {

// The calendar ring covers 8192 buckets x 1024 ns ~= 8.4 ms; anything past
// that waits in the overflow heap. Events on both sides of the horizon must
// still dispatch in (time, key) order.
constexpr Tick kBeyondHorizon = 100'000'000;  // 100 ms.

// ---------------------------------------------------- Calendar queue.

TEST(CalendarQueueTest, OverflowEventsInterleaveWithRingEvents) {
  Simulator sim;
  std::vector<int> order;
  sim.At(kBeyondHorizon, [&] { order.push_back(4); });
  sim.At(500, [&] { order.push_back(1); });
  sim.At(2 * kBeyondHorizon, [&] { order.push_back(5); });
  sim.At(1'000'000, [&] { order.push_back(2); });
  sim.At(kBeyondHorizon - 1, [&] { order.push_back(3); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_EQ(sim.now(), 2 * kBeyondHorizon);
  EXPECT_TRUE(sim.Idle());
}

TEST(CalendarQueueTest, SameTickFifoHoldsInOverflowHeap) {
  // Equal-time events tie-break on their key even when they sat in the overflow
  // min-heap (which is exactly where heap order would lose FIFO without it).
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 16; i++) {
    sim.At(kBeyondHorizon, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; i++) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(CalendarQueueTest, EventsCanScheduleAcrossTheHorizon) {
  // An event fired inside the window schedules past it, and vice versa once
  // the window has slid forward.
  Simulator sim;
  std::vector<std::string> order;
  sim.At(100, [&] {
    order.push_back("near");
    sim.At(kBeyondHorizon, [&] {
      order.push_back("far");
      sim.After(10, [&] { order.push_back("far+10"); });
    });
  });
  sim.Run();
  EXPECT_EQ(order, (std::vector<std::string>{"near", "far", "far+10"}));
  EXPECT_EQ(sim.now(), kBeyondHorizon + 10);
}

TEST(CalendarQueueTest, RunUntilAdvancesClockPastEmptyWindow) {
  Simulator sim;
  int fired = 0;
  sim.At(kBeyondHorizon, [&] { fired++; });
  // Stop short of the overflow event, then run to completion.
  EXPECT_EQ(sim.RunUntil(kBeyondHorizon - 1), 0u);
  EXPECT_EQ(sim.now(), kBeyondHorizon - 1);
  EXPECT_EQ(fired, 0);
  sim.Run();
  EXPECT_EQ(fired, 1);
}

TEST(CalendarQueueTest, TraceHashIsDeterministicAndOrderSensitive) {
  auto run = [](Tick second_event) {
    Simulator sim;
    for (Tick t : {Tick{100}, second_event, kBeyondHorizon}) {
      sim.At(t, [] {});
    }
    sim.Run();
    return sim.trace_hash();
  };
  EXPECT_EQ(run(200), run(200));     // Same schedule, same hash.
  EXPECT_NE(run(200), run(300));     // Any timing change perturbs it.
}

// ---------------------------------------------------- Cancellable timers.

// Three events in one 1024 ns bucket, the `cancel`-th withdrawn before the
// run: the other two run in order, and the withdrawn one is neither counted
// nor mixed into the digest.
void CancelOneOfThreeInABucket(size_t cancel) {
  Simulator sim;
  std::vector<int> order;
  std::vector<Simulator::Timer> timers;
  for (int i = 0; i < 3; i++) {
    timers.push_back(sim.AtCancellable(100 + 100 * i, 0, [&order, i] { order.push_back(i); }));
  }
  sim.Cancel(&timers[cancel]);
  EXPECT_FALSE(timers[cancel].armed());
  EXPECT_EQ(sim.pool_stats().live_events, 2u);
  std::vector<int> expected;
  for (int i = 0; i < 3; i++) {
    if (static_cast<size_t>(i) != cancel) {
      expected.push_back(i);
    }
  }
  EXPECT_EQ(sim.Run(), 2u);
  EXPECT_EQ(order, expected);
  EXPECT_EQ(sim.events_processed(), 2u);
  EXPECT_EQ(sim.pool_stats().live_events, 0u);
}

TEST(TimerTest, CancelHeadMiddleOrTailOfABucket) {
  for (size_t cancel = 0; cancel < 3; cancel++) {
    SCOPED_TRACE(cancel);
    CancelOneOfThreeInABucket(cancel);
  }
}

TEST(TimerTest, CancellingABucketsOnlyEventEmptiesIt) {
  // The occupancy scan must skip the emptied bucket (an occupancy bit left
  // set would send the scan to a bucket with no head).
  Simulator sim;
  int ran = 0;
  Simulator::Timer only = sim.AtCancellable(5'000, 0, [&] { ran += 100; });
  sim.At(9'000, [&] { ran++; });
  const uint64_t digest_before = sim.trace_hash();
  sim.Cancel(&only);
  EXPECT_EQ(sim.RunUntil(5'000), 0u);
  EXPECT_EQ(sim.trace_hash(), digest_before);
  EXPECT_EQ(sim.Run(), 1u);
  EXPECT_EQ(ran, 1);
  EXPECT_TRUE(sim.Idle());
}

TEST(TimerTest, CancelledOverflowEventNeverRunsAndReturnsToThePool) {
  Simulator sim;
  int ran = 0;
  Simulator::Timer far = sim.AtCancellable(kBeyondHorizon, 0, [&] { ran++; });
  EXPECT_EQ(sim.overflow_size(), 1u);
  const uint64_t digest_before = sim.trace_hash();
  sim.Cancel(&far);
  // Only a cancelled event remains: the simulator is idle, with nothing live.
  EXPECT_TRUE(sim.Idle());
  EXPECT_EQ(sim.pool_stats().live_events, 0u);
  EXPECT_EQ(sim.Run(), 0u);
  EXPECT_EQ(ran, 0);
  EXPECT_EQ(sim.events_processed(), 0u);
  EXPECT_EQ(sim.trace_hash(), digest_before);
  EXPECT_EQ(sim.overflow_size(), 0u);
  const Simulator::PoolStats stats = sim.pool_stats();
  EXPECT_EQ(stats.free_events, stats.slab_allocations * 1024);  // Every slot is back.
}

TEST(TimerTest, CancelledOverflowEventIsDroppedWhenTheWindowAdoptsIt) {
  // A chain of events walks the clock past the cancelled event's time, so
  // the window adopts it mid-run rather than finding it at the heap's front.
  Simulator sim;
  int far_ran = 0;
  int steps = 0;
  Simulator::Timer far = sim.AtCancellable(20 * kMillisecond, 0, [&] { far_ran++; });
  sim.At(30 * kMillisecond, [] {});  // Keeps one live overflow event behind it.
  sim.Cancel(&far);
  std::function<void()> step = [&] {
    if (++steps < 30) {
      sim.After(kMillisecond, [&] { step(); });
    }
  };
  sim.At(kMillisecond, [&] { step(); });
  EXPECT_EQ(sim.Run(), 31u);  // 30 steps and the 30 ms event.
  EXPECT_EQ(far_ran, 0);
  EXPECT_TRUE(sim.Idle());
  EXPECT_EQ(sim.overflow_size(), 0u);
}

TEST(TimerTest, WindowSlidesWithTheClock) {
  // From 5 ms into the first window, an event 8 ms ahead is within one
  // window of the clock, so it lands in the ring, not the overflow heap.
  Simulator sim;
  bool ran = false;
  sim.At(5 * kMillisecond, [&] {
    sim.After(8 * kMillisecond, [&] { ran = true; });
    EXPECT_EQ(sim.overflow_size(), 0u);
  });
  sim.Run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.now(), 13 * kMillisecond);
}

TEST(TimerTest, TimerArmedInsideAnEventCancelsFromAnother) {
  // The RPC pattern: one event arms a timer, a later one withdraws it.
  Simulator sim;
  Simulator::Timer deadline;
  bool fired = false;
  sim.At(100, [&] {
    deadline = sim.AtCancellable(sim.now() + 5 * kMillisecond, 0, [&] {
      deadline = Simulator::Timer();
      fired = true;
    });
  });
  sim.At(200, [&] { sim.Cancel(&deadline); });
  EXPECT_EQ(sim.Run(), 2u);
  EXPECT_FALSE(fired);
  EXPECT_FALSE(deadline.armed());
}

#if ROCKSTEADY_DCHECK_ENABLED

TEST(TimerDeathTest, CancellingTwiceIsFatal) {
  Simulator sim;
  Simulator::Timer timer = sim.AtCancellable(100, 0, [] {});
  Simulator::Timer copy = timer;
  sim.Cancel(&timer);
  EXPECT_DEATH(sim.Cancel(&timer), "armed");
  EXPECT_DEATH(sim.Cancel(&copy), "still_queued");
}

TEST(TimerDeathTest, CancellingAfterTheEventRanIsFatal) {
  Simulator sim;
  Simulator::Timer timer = sim.AtCancellable(100, 0, [] {});
  sim.Run();
  EXPECT_DEATH(sim.Cancel(&timer), "still_queued");
  // Its pool slot reused by a later event: the key no longer matches.
  sim.At(200, [] {});
  EXPECT_DEATH(sim.Cancel(&timer), "same_event");
}

#endif  // ROCKSTEADY_DCHECK_ENABLED

// ---------------------------------------------------- Event slab pool.

TEST(EventPoolTest, SteadyStateChurnNeverGrowsThePool) {
  Simulator sim;
  // Warm up: one burst allocates the first slab(s).
  for (int i = 0; i < 64; i++) {
    sim.After(i + 1, [] {});
  }
  sim.Run();
  const uint64_t warm_slabs = sim.pool_stats().slab_allocations;
  EXPECT_GE(warm_slabs, 1u);

  // Thousands of schedule -> dispatch -> free cycles at the same live-event
  // ceiling must be fed entirely from the free list.
  for (int cycle = 0; cycle < 200; cycle++) {
    for (int i = 0; i < 64; i++) {
      sim.After(i + 1, [] {});
    }
    sim.Run();
  }
  EXPECT_EQ(sim.pool_stats().slab_allocations, warm_slabs);
}

TEST(EventPoolTest, PoolStatsTrackLiveAndFreeEvents) {
  Simulator sim;
  EXPECT_EQ(sim.pool_stats().live_events, 0u);
  sim.At(10, [] {});
  sim.At(kBeyondHorizon, [] {});  // One ring event, one overflow event.
  EXPECT_EQ(sim.pool_stats().live_events, 2u);
  sim.Run();
  const Simulator::PoolStats after = sim.pool_stats();
  EXPECT_EQ(after.live_events, 0u);
  EXPECT_GE(after.free_events, 2u);  // Dispatched events returned to the pool.
}

// ---------------------------------------------------- InlineFunction.

TEST(InlineFunctionTest, SmallCapturesStayInline) {
  const uint64_t before = InlineFunctionHeapFallbacks();
  int hits = 0;
  InlineFunction<void(), 64> fn = [&hits] { hits++; };
  fn();
  fn();
  EXPECT_EQ(hits, 2);
  EXPECT_EQ(InlineFunctionHeapFallbacks(), before);
}

TEST(InlineFunctionTest, OversizedCapturesFallBackToHeapAndCount) {
  const uint64_t before = InlineFunctionHeapFallbacks();
  struct Big {
    char bytes[128];
  } big{};
  big.bytes[0] = 7;
  InlineFunction<int(), 64> fn = [big] { return static_cast<int>(big.bytes[0]); };
  EXPECT_EQ(fn(), 7);
  EXPECT_EQ(InlineFunctionHeapFallbacks(), before + 1);
}

TEST(InlineFunctionTest, MoveOnlyCallablesWork) {
  auto value = std::make_unique<int>(42);
  InlineFunction<int(), 64> fn = [v = std::move(value)] { return *v; };
  InlineFunction<int(), 64> moved = std::move(fn);
  EXPECT_FALSE(static_cast<bool>(fn));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(moved));
  EXPECT_EQ(moved(), 42);
}

TEST(InlineFunctionTest, NullAssignmentClears) {
  InlineFunction<void(), 64> fn = [] {};
  EXPECT_TRUE(static_cast<bool>(fn));
  fn = nullptr;
  EXPECT_FALSE(static_cast<bool>(fn));
  EXPECT_TRUE(fn == nullptr);
}

TEST(InlineFunctionTest, ArgumentsAndReturnValuesFlowThrough) {
  // The bias capture keeps the closure non-empty (a captureless lambda's
  // unwritten storage trips GCC's -Wmaybe-uninitialized under -Werror).
  const int bias = 1;
  InlineFunction<int(int, int), 32> add = [bias](int a, int b) { return a + b + bias; };
  EXPECT_EQ(add(2, 3), 6);
}

// ---------------------------------------------------- FlatMap64.

TEST(FlatMapTest, ZeroIsALegalKey) {
  FlatMap64<int> map;
  EXPECT_EQ(map.Find(0), nullptr);
  map[0] = 11;
  ASSERT_NE(map.Find(0), nullptr);
  EXPECT_EQ(*map.Find(0), 11);
  EXPECT_EQ(map.size(), 1u);
  EXPECT_TRUE(map.Erase(0));
  EXPECT_EQ(map.Find(0), nullptr);
  EXPECT_TRUE(map.empty());
}

TEST(FlatMapTest, EraseThenReinsertReusesTombstones) {
  FlatMap64<uint64_t> map;
  // Churn the same small key set far more times than the capacity: if
  // tombstones were not reused/swept, the table would wedge or grow without
  // bound. size() staying exact proves the probe paths stay coherent.
  for (int round = 0; round < 1000; round++) {
    for (uint64_t k = 0; k < 8; k++) {
      map[k] = k * 10;
    }
    EXPECT_EQ(map.size(), 8u);
    for (uint64_t k = 0; k < 8; k++) {
      ASSERT_NE(map.Find(k), nullptr);
      EXPECT_EQ(*map.Find(k), k * 10);
      EXPECT_TRUE(map.Erase(k));
    }
    EXPECT_TRUE(map.empty());
  }
  EXPECT_FALSE(map.Erase(3));  // Erasing an absent key reports failure.
}

TEST(FlatMapTest, GrowthPreservesAllEntries) {
  FlatMap64<uint64_t> map;
  constexpr uint64_t kCount = 10'000;
  for (uint64_t k = 0; k < kCount; k++) {
    map[k * 0x9e3779b97f4a7c15ull] = k;  // Scattered keys force real probing.
  }
  EXPECT_EQ(map.size(), kCount);
  for (uint64_t k = 0; k < kCount; k++) {
    uint64_t* v = map.Find(k * 0x9e3779b97f4a7c15ull);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, k);
  }
  EXPECT_EQ(map.Find(1), nullptr);  // A key never inserted stays absent.
}

TEST(FlatMapTest, ValuesAreDestroyedOnErase) {
  // Erase must release held resources immediately (the dedup cache holds
  // cloned responses; leaking them until rehash would balloon memory).
  FlatMap64<std::shared_ptr<int>> map;
  auto value = std::make_shared<int>(5);
  std::weak_ptr<int> watch = value;
  map[77] = std::move(value);
  EXPECT_FALSE(watch.expired());
  map.Erase(77);
  EXPECT_TRUE(watch.expired());
}

TEST(FlatMapTest, PackLinkIsInjectiveOnDirection) {
  EXPECT_NE(PackLink(1, 2), PackLink(2, 1));
  EXPECT_EQ(PackLink(1, 2), PackLink(1, 2));
  EXPECT_EQ(PackLink(0, 0), 0u);
  EXPECT_EQ(PackLink(1, 0), uint64_t{1} << 32);
}

// ---------------------------------------------------- FaultInjector.

// Installs `injector` on a throwaway `nodes`-node fabric: installation is
// what gives it one fault stream per sender.
void InstallOnFabric(FaultInjector* injector, int nodes = 10) {
  LaneSet lanes(LaneSet::Config{});
  CostModel costs;
  Network net(&lanes, &costs);
  for (int i = 0; i < nodes; i++) {
    net.AddNode();
  }
  net.SetFaultInjector(injector);
}

TEST(FaultInjectorFlatTest, DrawSequenceIsAPureFunctionOfSeed) {
  // Two injectors with the same seed and config must produce identical
  // decision streams — the flat per-link tables cannot perturb the RNG.
  FaultInjector::Config config;
  config.seed = 42;
  config.drop_probability = 0.3;
  config.duplicate_probability = 0.2;
  config.max_extra_delay_ns = 1000;
  FaultInjector a(config);
  FaultInjector b(config);
  InstallOnFabric(&a);
  InstallOnFabric(&b);
  for (int i = 0; i < 500; i++) {
    const uint32_t from = static_cast<uint32_t>(i % 7);
    const uint32_t to = static_cast<uint32_t>((i * 3) % 5);
    const FaultInjector::Decision da = a.OnMessage(from, to);
    const FaultInjector::Decision db = b.OnMessage(from, to);
    EXPECT_EQ(da.copies, db.copies);
    EXPECT_EQ(da.extra_delay_ns, db.extra_delay_ns);
  }
}

TEST(FaultInjectorFlatTest, SenderStreamsAreIndependent) {
  // A sender's decisions depend only on its own send order: interleaving
  // another sender's traffic (what a different lane split would do) must
  // not change them.
  FaultInjector::Config config;
  config.seed = 42;
  config.drop_probability = 0.3;
  config.duplicate_probability = 0.2;
  config.max_extra_delay_ns = 1000;
  FaultInjector alone(config);
  FaultInjector mixed(config);
  InstallOnFabric(&alone);
  InstallOnFabric(&mixed);
  for (int i = 0; i < 200; i++) {
    mixed.OnMessage(2, 1);
    const FaultInjector::Decision da = alone.OnMessage(1, 2);
    const FaultInjector::Decision dm = mixed.OnMessage(1, 2);
    EXPECT_EQ(da.copies, dm.copies);
    EXPECT_EQ(da.extra_delay_ns, dm.extra_delay_ns);
  }
}

TEST(FaultInjectorFlatTest, DropNextConsumesExactlyNMessages) {
  FaultInjector injector(FaultInjector::Config{.seed = 1});
  InstallOnFabric(&injector);
  injector.DropNext(3, 4, 2);
  EXPECT_EQ(injector.OnMessage(3, 4).copies, 0);
  EXPECT_EQ(injector.OnMessage(4, 3).copies, 1);  // Reverse link unaffected.
  EXPECT_EQ(injector.OnMessage(3, 4).copies, 0);
  EXPECT_EQ(injector.OnMessage(3, 4).copies, 1);  // Budget exhausted.
}

TEST(FaultInjectorFlatTest, DuplicateNextForcesExactlyNDuplicates) {
  FaultInjector injector(FaultInjector::Config{.seed = 1});
  InstallOnFabric(&injector);
  injector.DuplicateNext(9, 2, 1);
  EXPECT_EQ(injector.OnMessage(9, 2).copies, 2);
  EXPECT_EQ(injector.OnMessage(9, 2).copies, 1);
}

TEST(FaultInjectorFlatTest, LinkOverridesApplyAndClear) {
  FaultInjector::Config config;
  config.seed = 5;
  config.drop_probability = 0.0;  // Base fabric is lossless.
  FaultInjector injector(config);
  InstallOnFabric(&injector);
  injector.SetLinkOverride(1, 2, /*drop_probability=*/1.0, /*duplicate_probability=*/0.0);
  for (int i = 0; i < 10; i++) {
    EXPECT_EQ(injector.OnMessage(1, 2).copies, 0);  // Overridden link drops all.
    EXPECT_EQ(injector.OnMessage(2, 1).copies, 1);  // Other links untouched.
  }
  injector.ClearLinkOverride(1, 2);
  EXPECT_EQ(injector.OnMessage(1, 2).copies, 1);
}

}  // namespace
}  // namespace rocksteady
