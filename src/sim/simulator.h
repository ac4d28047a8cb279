// Discrete-event simulation kernel.
//
// The paper evaluated Rocksteady on a 24-node CloudLab cluster with 40 Gbps
// kernel-bypass NICs. That hardware is substituted here by a deterministic
// single-threaded discrete-event simulation: every server core, NIC, and link
// is a simulated resource, and all timing comes from sim::CostModel. Data
// structures (log, hash table) are real and mutate inside event callbacks;
// only *time* is simulated.
//
// Engine (see DESIGN.md "Engine performance" and "Sharded execution"):
// events are 128-byte slab-pooled objects whose callbacks live inline
// (EventFn), organized in a calendar queue — a ring of fixed-width time
// buckets covering a window that slides with the clock, with a min-heap
// overflow for events beyond the horizon. The schedule → dispatch → free
// cycle touches no allocator, and an event scheduled with AtCancellable can
// be withdrawn in O(1) before it runs. Every event runs on a node and
// carries a key fixed when it is scheduled, (time, origin node, origin-local
// counter): equal-time events on one node run in (origin, counter) order,
// so each origin's events stay FIFO. A Simulator is one lane of a LaneSet;
// a standalone Simulator (unit tests, micro-benches) is the same engine with
// one lane holding one node.
#ifndef ROCKSTEADY_SRC_SIM_SIMULATOR_H_
#define ROCKSTEADY_SRC_SIM_SIMULATOR_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/common/dcheck.h"
#include "src/common/inline_function.h"
#include "src/common/types.h"

namespace rocksteady {

// Event callbacks store up to this many capture bytes inline (larger ones
// heap-box and count a fallback). 88 makes the whole Event exactly two
// cache lines, and fits every wrapper in the stack: the widest hot-path
// closure — a CoreSet dispatch/completion wrapper or a Network delivery
// wrapper carrying a nested 64-byte-inline callback — is exactly 88 bytes.
inline constexpr size_t kEventInlineBytes = 88;
using EventFn = InlineFunction<void(), kEventInlineBytes>;

class LaneSet;

class Simulator {
 private:
  struct Event;

 public:
  // A handle on one event scheduled with AtCancellable. It does not own the
  // event: its holder clears it (`timer = Timer()`) when the event runs, and
  // Cancel clears it. An event is cancelled at most once and never after it
  // ran (both DCHECKed).
  class Timer {
   public:
    bool armed() const { return event_ != nullptr; }

   private:
    friend class Simulator;
    Event* event_ = nullptr;
    uint64_t seq_ = 0;  // The event's key; a reused pool slot carries another.
  };

  // A standalone simulator: one lane holding node 0.
  Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  ~Simulator();

  Tick now() const { return now_; }

  // Schedules `fn` at absolute time `t` (>= now). Events one context
  // schedules for the same tick run in scheduling order (FIFO); root-context
  // events sort before same-tick events scheduled by a node.
  // Scheduling in the past is a checked error: fatal in debug builds, and
  // clamped to now() in release builds — time never flows backwards.
  //
  // Every event runs on a node (see src/sim/lane_set.h). This form runs
  // `fn` on the node whose event is executing; from root context (setup, a
  // safe-point task) it runs on the node last named by ForNode (node 0 in a
  // standalone simulator).
  void At(Tick t, EventFn fn);
  // Runs `fn` on `node`, which must belong to this simulator's lane.
  void At(Tick t, NodeId node, EventFn fn);

  // At(t, node, fn) that can be withdrawn with Cancel. The event's key is
  // allocated exactly as At allocates it, so arming a timer never reorders
  // other events.
  Timer AtCancellable(Tick t, NodeId node, EventFn fn);
  // Withdraws `timer`'s event and clears the handle. A cancelled event never
  // runs and is never counted or mixed into a digest. In the ring it goes
  // back to the pool at once; in the overflow heap its callback is released
  // at once and the slot is dropped when the window reaches it.
  void Cancel(Timer* timer);

  void After(Tick delay, EventFn fn) { At(now_ + delay, std::move(fn)); }
  void After(Tick delay, NodeId node, EventFn fn) { At(now_ + delay, node, std::move(fn)); }

  // Names the node that root-context scheduling through At(t, fn) runs on.
  // Node-bound accessors (RamCloudClient::sim and friends) call it, so
  // setup code can schedule node work without naming the node.
  // Inside an event the running node wins.
  Simulator& ForNode(NodeId node) {
    root_node_ = node;
    return *this;
  }

  // True while an event runs on `node`, or in root context (setup and
  // safe-point tasks, every lane parked). Node-owned state checks this at
  // its entry points: an event touches only its own node.
  bool InRootOrOn(NodeId node) const {
    return running_node_ == kNoNode || running_node_ == node;
  }
  bool in_event() const { return running_node_ != kNoNode; }

  // Lane member only: runs `fn` in root context once everything before `t`
  // has executed and nothing at/after `t` has (LaneSet::AtSafePoint). From
  // inside an event, `t` must be at least one lookahead past now(): the
  // same rule cross-lane mail follows, so the task lands at the same point
  // of the timeline at every lane count.
  void AtSafePoint(Tick t, std::function<void()> fn);  // lint:allow-churn — cold, a handful per run.

  // Standalone only (a LaneSet lane runs through LaneSet::Run*):
  // Runs events until the queue drains. Returns the number processed.
  size_t Run();

  // Runs events with timestamp <= `t`, then advances the clock to `t`.
  // Returns the number processed. `t` must be >= now(): the clock never
  // rewinds (checked error in debug builds; no-op in release builds).
  size_t RunUntil(Tick t);

  bool Idle() const { return ring_count_ == 0 && overflow_.size() == overflow_cancelled_; }
  size_t events_processed() const { return events_processed_; }

  // Standalone only: order-sensitive digest of every event dispatched so
  // far (cancelled events never are), mixed from each event's (time, key).
  // A LaneSet keeps one digest per node (LaneSet::trace_hash).
  uint64_t trace_hash() const { return solo_clock_.digest; }

  // Event-pool telemetry. In steady state the free list satisfies every
  // schedule, so slab_allocations stays flat — asserted by the allocation
  // regression test, reported by the engine bench.
  struct PoolStats {
    uint64_t slab_allocations = 0;  // Times the pool grew by one slab.
    uint64_t live_events = 0;       // Currently scheduled.
    uint64_t free_events = 0;       // Pooled, ready for reuse.
  };
  PoolStats pool_stats() const {
    return PoolStats{slab_allocations_, ring_count_ + overflow_.size() - overflow_cancelled_,
                     free_count_};
  }

  // Events waiting in the overflow heap, cancelled ones included (tests pin
  // where an event lands).
  size_t overflow_size() const { return overflow_.size(); }

 private:
  friend class LaneSet;

  // One pooled event: two cache lines (32 bytes of links + 96-byte EventFn).
  // prev/next double as the intrusive bucket-list links and, for free
  // events, the free-list thread (next only). They also mark the states a
  // Timer may find its event in: prev == self once the event left the queue
  // (dispatched or free); next == self for a cancelled overflow event.
  struct Event {
    Tick time = 0;
    // Same-time tie-break: the key [executing node | origin node + 1 |
    // origin counter] fixed at scheduling time (see LaneKey).
    uint64_t seq = 0;
    Event* prev = nullptr;
    Event* next = nullptr;
    EventFn fn;
  };
  static_assert(sizeof(Event) == 128, "Event should stay two cache lines");

  // Calendar geometry: 8192 buckets of 1024 ns cover an ~8.4 ms window
  // that starts at the bucket of the last dispatched event, so everything
  // up to ~8.4 ms ahead of the clock — every RPC deadline included — lands
  // in the ring, where Cancel is O(1). Later events (leases, long timers)
  // wait in the overflow heap and are adopted as the window slides over
  // them.
  static constexpr int kBucketWidthLog2 = 10;
  static constexpr size_t kNumBuckets = 8192;
  static constexpr size_t kBucketMask = kNumBuckets - 1;
  static constexpr size_t kOccupancyWords = kNumBuckets / 64;
  static constexpr size_t kSlabEvents = 1024;

  struct BucketList {
    Event* head = nullptr;
    Event* tail = nullptr;
  };

  static uint64_t BucketOf(Tick t) { return t >> kBucketWidthLog2; }
  static bool EventLater(const Event* a, const Event* b);

  static uint64_t Fnv(uint64_t digest, Tick time, uint64_t seq) {
    // FNV-1a over the event's (time, seq); cheap enough to keep always on.
    digest = (digest ^ time) * 0x100000001b3ull;
    return (digest ^ seq) * 0x100000001b3ull;
  }

  // --- Event keys (see src/sim/lane_set.h). ---
  // Every event carries a key fixed when it is scheduled: the node it
  // executes on, the node whose callback scheduled it (0 for root context:
  // setup and safe-point tasks), and that origin's private counter. Equal-
  // time events on one node therefore run in (origin, counter) order, which
  // depends only on per-node histories — never on which lane a node sits
  // on, how windows fall, or threading.
  static constexpr int kNodeBits = 14;
  static constexpr int kCounterBits = 64 - 2 * kNodeBits;
  static constexpr int kExecShift = 64 - kNodeBits;
  static constexpr NodeId kMaxLaneNodes = (NodeId{1} << kNodeBits) - 1;
  static constexpr NodeId kNoNode = ~NodeId{0};

  // Per-node engine state, one cache line each so lanes never false-share.
  struct alignas(64) NodeClock {
    uint64_t next = 0;                     // Counter for events this node schedules.
    uint64_t digest = 0xcbf29ce484222325ull;  // FNV digest of this node's dispatches.
  };

  // Lane `lane` of `lane_set`.
  Simulator(LaneSet* lane_set, int lane);
  // The key of an event this context schedules onto `exec`.
  uint64_t LaneKey(NodeId exec);
  // Allocates and queues an event under `key`.
  Event* Enqueue(Tick t, uint64_t key, EventFn fn);
  // Runs every queued event with time < `end`, mixing each node's digest.
  // Returns events dispatched.
  size_t RunWindow(Tick end);

  Event* AllocEvent();
  void FreeEvent(Event* e);
  // Ring-or-overflow insertion of a fully formed event (time, seq, fn set).
  void InsertQueued(Event* e);
  // Pops cancelled events off the overflow heap's front into the pool.
  void DropCancelledOverflowFront();
  void InsertRing(Event* e, uint64_t ab);
  // Slides the window so `new_base` is its first bucket and adopts every
  // overflow event that now falls inside it.
  void AdvanceWindowTo(uint64_t new_base);
  // Absolute bucket number of the first occupied ring bucket at or after
  // `scan_ab_`. Requires ring_count_ > 0.
  uint64_t FirstOccupiedBucket();
  // Detaches and returns the earliest event if its time is <= `last`
  // (nullptr otherwise), advancing the window if the earliest lives in the
  // overflow heap.
  Event* PopMinUpTo(Tick last);
  // Time of the earliest event without popping or sliding the window.
  bool PeekMinTime(Tick* t);

  Tick now_ = 0;
  size_t events_processed_ = 0;
  // The running window's end; an in-event safe point may pull it in.
  Tick window_end_ = 0;

  // Ring + overflow queue state.
  std::vector<BucketList> buckets_{kNumBuckets};
  std::array<uint64_t, kOccupancyWords> occupancy_{};
  uint64_t win_base_ = 0;  // Absolute bucket number of the window's start.
  uint64_t scan_ab_ = 0;   // Monotone scan cursor (absolute bucket number).
  size_t ring_count_ = 0;
  std::vector<Event*> overflow_;  // Min-heap on (time, seq).
  size_t overflow_cancelled_ = 0;  // Cancelled events still in overflow_.

  // Slab pool.
  std::vector<std::unique_ptr<Event[]>> slabs_;
  Event* free_list_ = nullptr;
  uint64_t slab_allocations_ = 0;
  uint64_t free_count_ = 0;

  // Lane state, owned by this lane's thread.
  int lane_ = 0;
  LaneSet* lane_set_ = nullptr;  // Null when standalone.
  // Standalone: node 0's clock and the root counter (a lane uses its set's).
  NodeClock solo_clock_;
  uint64_t solo_root_next_ = 0;
  NodeClock* clocks_ = &solo_clock_;  // Per-node clocks, cached per window.
  NodeId running_node_ = kNoNode;  // The executing event's node; kNoNode in root context.
  NodeId root_node_ = 0;           // ForNode's binding for root-context At(t, fn).
};

}  // namespace rocksteady

#endif  // ROCKSTEADY_SRC_SIM_SIMULATOR_H_
