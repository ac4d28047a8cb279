// Discrete-event simulation kernel.
//
// The paper evaluated Rocksteady on a 24-node CloudLab cluster with 40 Gbps
// kernel-bypass NICs. That hardware is substituted here by a deterministic
// single-threaded discrete-event simulation: every server core, NIC, and link
// is a simulated resource, and all timing comes from sim::CostModel. Data
// structures (log, hash table) are real and mutate inside event callbacks;
// only *time* is simulated.
//
// Engine (see DESIGN.md "Engine performance"): events are 128-byte slab-
// pooled objects whose callbacks live inline (EventFn), organized in a
// calendar queue — a ring of fixed-width time buckets covering a sliding
// window, with a min-heap overflow for events beyond the horizon. The
// schedule → dispatch → free cycle touches no allocator. Dispatch order is
// identical to the old binary-heap engine: (time, seq) with seq assigned at
// scheduling time, so equal-time events stay FIFO and trace hashes are
// unchanged.
#ifndef ROCKSTEADY_SRC_SIM_SIMULATOR_H_
#define ROCKSTEADY_SRC_SIM_SIMULATOR_H_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/dcheck.h"
#include "src/common/inline_function.h"
#include "src/common/random.h"
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
 public:
  explicit Simulator(uint64_t seed = 1);

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  ~Simulator();

  Tick now() const { return now_; }

  // Schedules `fn` at absolute time `t` (>= now). Events scheduled for the
  // same tick run in scheduling order (FIFO), which keeps runs deterministic.
  // Scheduling in the past is a checked error: fatal in debug builds, and
  // clamped to now() in release builds — time never flows backwards.
  //
  // Lane mode (see src/sim/lane_set.h): every event runs on a node. This
  // form runs `fn` on the node whose event is executing; from root context
  // (setup, a safe-point task) it runs on the node last named by ForNode.
  void At(Tick t, EventFn fn);
  // Runs `fn` on `node`, which must belong to this simulator's lane. Legacy
  // single-queue mode ignores the node.
  void At(Tick t, NodeId node, EventFn fn);

  void After(Tick delay, EventFn fn) { At(now_ + delay, std::move(fn)); }
  void After(Tick delay, NodeId node, EventFn fn) { At(now_ + delay, node, std::move(fn)); }

  // Names the node that root-context scheduling through At(t, fn) runs on.
  // Node-bound accessors (RamCloudClient::sim and friends) call it, so
  // setup code can schedule node work without naming the node.
  // Inside an event the running node wins. A no-op in legacy mode.
  Simulator& ForNode(NodeId node) {
    root_node_ = node;
    return *this;
  }

  // Runs events until the queue drains. Returns the number processed.
  size_t Run();

  // Runs events with timestamp <= `t`, then advances the clock to `t`.
  // Returns the number processed. `t` must be >= now(): the clock never
  // rewinds (checked error in debug builds; no-op in release builds).
  size_t RunUntil(Tick t);

  bool Idle() const { return ring_count_ == 0 && overflow_.empty(); }
  size_t events_processed() const { return events_processed_; }

  // Order-sensitive digest of every event dispatched so far: two runs of
  // the same scenario are deterministic iff their trace hashes are equal.
  // Mixed from each event's (time, seq) at dispatch, so any divergence in
  // scheduling order or timing changes the hash. Legacy mode only; a lane's
  // digests live per node (LaneSet::trace_hash).
  uint64_t trace_hash() const { return trace_hash_; }

  Random& rng() { return rng_; }

  // Event-pool telemetry. In steady state the free list satisfies every
  // schedule, so slab_allocations stays flat — asserted by the allocation
  // regression test, reported by the engine bench.
  struct PoolStats {
    uint64_t slab_allocations = 0;  // Times the pool grew by one slab.
    uint64_t live_events = 0;       // Currently scheduled.
    uint64_t free_events = 0;       // Pooled, ready for reuse.
  };
  PoolStats pool_stats() const {
    return PoolStats{slab_allocations_, ring_count_ + overflow_.size(),
                     free_count_};
  }

 private:
  friend class LaneSet;

  // One pooled event: two cache lines (32 bytes of links + 96-byte EventFn).
  // prev/next double as the intrusive bucket-list links and, for free
  // events, the free-list thread (next only).
  struct Event {
    Tick time = 0;
    // Same-time tie-break. Legacy: the global scheduling sequence number.
    // Lane mode: the key [executing node | origin node + 1 | origin counter]
    // fixed at scheduling time (see LaneKey).
    uint64_t seq = 0;
    Event* prev = nullptr;
    Event* next = nullptr;
    EventFn fn;
  };
  static_assert(sizeof(Event) == 128, "Event should stay two cache lines");

  // Calendar geometry: 8192 buckets of 1024 ns cover an ~8.4 ms window —
  // wider than the RPC timeout, so nearly all events land in the ring.
  // Later events (leases, deadlines) wait in the overflow heap and are
  // adopted when the window slides over them.
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

  // --- Lane mode (see src/sim/lane_set.h). ---
  // Every lane event carries a key fixed when it is scheduled: the node it
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

  // Puts this simulator in lane mode as lane `lane` of `lane_set`.
  void BeginLaneMode(LaneSet* lane_set, int lane);
  // The key of an event this context schedules onto `exec`.
  uint64_t LaneKey(NodeId exec);
  // Allocates and queues a lane event under `key`.
  void Enqueue(Tick t, uint64_t key, EventFn fn);
  // Runs every queued event with time < `end`, mixing each node's digest.
  // Returns events dispatched.
  size_t RunWindow(Tick end);

  Event* AllocEvent();
  void FreeEvent(Event* e);
  // Ring-or-overflow insertion of a fully formed event (time, seq, fn set).
  void InsertQueued(Event* e);
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
  uint64_t next_seq_ = 0;
  size_t events_processed_ = 0;
  uint64_t trace_hash_ = 0xcbf29ce484222325ull;  // FNV offset basis.

  // Ring + overflow queue state.
  std::vector<BucketList> buckets_{kNumBuckets};
  std::array<uint64_t, kOccupancyWords> occupancy_{};
  uint64_t win_base_ = 0;  // Absolute bucket number of the window's start.
  uint64_t scan_ab_ = 0;   // Monotone scan cursor (absolute bucket number).
  size_t ring_count_ = 0;
  std::vector<Event*> overflow_;  // Min-heap on (time, seq).

  // Slab pool.
  std::vector<std::unique_ptr<Event[]>> slabs_;
  Event* free_list_ = nullptr;
  uint64_t slab_allocations_ = 0;
  uint64_t free_count_ = 0;

  // Lane-mode state (inert in legacy mode), owned by this lane's thread.
  bool lane_mode_ = false;
  int lane_ = 0;
  LaneSet* lane_set_ = nullptr;
  NodeClock* clocks_ = nullptr;  // LaneSet's per-node clocks, cached per window.
  NodeId running_node_ = kNoNode;  // The executing event's node; kNoNode in root context.
  NodeId root_node_ = kNoNode;     // ForNode's binding for root-context At(t, fn).

  Random rng_;
};

}  // namespace rocksteady

#endif  // ROCKSTEADY_SRC_SIM_SIMULATOR_H_
