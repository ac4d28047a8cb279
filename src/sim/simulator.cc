#include "src/sim/simulator.h"

#include <algorithm>
#include <utility>

#include "src/sim/lane_set.h"

namespace rocksteady {

// Overflow heap order: min (time, seq) at the front.
bool Simulator::EventLater(const Event* a, const Event* b) {
  return a->time != b->time ? a->time > b->time : a->seq > b->seq;
}

Simulator::Simulator(uint64_t seed) : rng_(seed) {}

Simulator::~Simulator() {
  // Slab destruction runs every Event's destructor, releasing any state
  // still captured by pending callbacks. Nothing else to do.
}

Simulator::Event* Simulator::AllocEvent() {
  if (free_list_ == nullptr) {
    slabs_.push_back(std::make_unique<Event[]>(kSlabEvents));
    slab_allocations_++;
    Event* slab = slabs_.back().get();
    // Thread the new slab onto the free list in reverse so events hand out
    // in index order (no behavioral significance; just tidy).
    for (size_t i = kSlabEvents; i-- > 0;) {
      slab[i].next = free_list_;
      free_list_ = &slab[i];
    }
    free_count_ += kSlabEvents;
  }
  Event* e = free_list_;
  free_list_ = e->next;
  free_count_--;
  e->prev = nullptr;
  e->next = nullptr;
  return e;
}

void Simulator::FreeEvent(Event* e) {
  // The callback must already be destroyed (fn = nullptr) by the caller so
  // captured resources are released before the event idles in the pool.
  e->next = free_list_;
  free_list_ = e;
  free_count_++;
}

void Simulator::InsertRing(Event* e, uint64_t ab) {
  BucketList& bucket = buckets_[ab & kBucketMask];
  // Insert sorted by (time, seq), scanning from the tail: seq is globally
  // monotone, so a fresh event nearly always appends in O(1); only overflow
  // adoptions and release-mode past-clamps ever walk.
  Event* after = bucket.tail;
  while (after != nullptr &&
         (after->time > e->time || (after->time == e->time && after->seq > e->seq))) {
    after = after->prev;
  }
  if (after == nullptr) {
    e->next = bucket.head;
    e->prev = nullptr;
    if (bucket.head != nullptr) {
      bucket.head->prev = e;
    } else {
      bucket.tail = e;
    }
    bucket.head = e;
  } else {
    e->next = after->next;
    e->prev = after;
    if (after->next != nullptr) {
      after->next->prev = e;
    } else {
      bucket.tail = e;
    }
    after->next = e;
  }
  const size_t slot = ab & kBucketMask;
  occupancy_[slot >> 6] |= 1ull << (slot & 63);
  ring_count_++;
}

void Simulator::AdvanceWindowTo(uint64_t new_base) {
  ROCKSTEADY_DCHECK_GE(new_base, win_base_);
  win_base_ = new_base;
  scan_ab_ = std::max(scan_ab_, win_base_);
  // Adopt every overflow event that now falls inside the window. They pop
  // in (time, seq) order, so each lands at its bucket's tail in O(1).
  while (!overflow_.empty() && BucketOf(overflow_.front()->time) < win_base_ + kNumBuckets) {
    std::pop_heap(overflow_.begin(), overflow_.end(), &EventLater);
    Event* e = overflow_.back();
    overflow_.pop_back();
    InsertRing(e, BucketOf(e->time));
  }
}

uint64_t Simulator::FirstOccupiedBucket() {
  ROCKSTEADY_DCHECK_GE(ring_count_, 1u);
  // Scan the occupancy bitmap in ring order starting at scan_ab_'s slot.
  // Every remaining event's bucket is >= scan_ab_, and slot distance from
  // the cursor equals bucket distance, so the first set bit is the minimum.
  const size_t start_slot = scan_ab_ & kBucketMask;
  const size_t base_slot = win_base_ & kBucketMask;
  size_t word = start_slot >> 6;
  uint64_t bits = occupancy_[word] & (~0ull << (start_slot & 63));
  for (size_t i = 0; i <= kOccupancyWords; i++) {
    if (bits != 0) {
      const size_t slot = (word << 6) + static_cast<size_t>(__builtin_ctzll(bits));
      return win_base_ + ((slot - base_slot) & kBucketMask);
    }
    word = (word + 1) & (kOccupancyWords - 1);
    bits = occupancy_[word];
  }
  ROCKSTEADY_DCHECK(false);  // ring_count_ > 0 guarantees a set bit.
  return scan_ab_;
}

Simulator::Event* Simulator::PopMinUpTo(Tick last) {
  if (ring_count_ == 0) {
    if (overflow_.empty() || overflow_.front()->time > last) {
      return nullptr;
    }
    AdvanceWindowTo(BucketOf(overflow_.front()->time));
  }
  const uint64_t ab = FirstOccupiedBucket();
  scan_ab_ = ab;
  const size_t slot = ab & kBucketMask;
  BucketList& bucket = buckets_[slot];
  Event* e = bucket.head;
  if (e->time > last) {
    return nullptr;
  }
  bucket.head = e->next;
  if (bucket.head != nullptr) {
    bucket.head->prev = nullptr;
  } else {
    bucket.tail = nullptr;
    occupancy_[slot >> 6] &= ~(1ull << (slot & 63));
  }
  ring_count_--;
  return e;
}

bool Simulator::PeekMinTime(Tick* t) {
  if (ring_count_ > 0) {
    const uint64_t ab = FirstOccupiedBucket();
    scan_ab_ = ab;  // Cursor cache only; peeking never slides the window.
    *t = buckets_[ab & kBucketMask].head->time;
    return true;
  }
  if (!overflow_.empty()) {
    *t = overflow_.front()->time;
    return true;
  }
  return false;
}

void Simulator::InsertQueued(Event* e) {
  const uint64_t ab = BucketOf(e->time);
  if (ab < win_base_ + kNumBuckets) {
    InsertRing(e, ab);
    // PeekMinTime parks the scan cursor at the current minimum's bucket; a
    // RunUntil that stops short of that minimum can then legally schedule
    // here, behind the cursor. Rewind so the occupancy scan can't skip it.
    if (ab < scan_ab_) {
      scan_ab_ = ab;
    }
  } else {
    overflow_.push_back(e);
    std::push_heap(overflow_.begin(), overflow_.end(), &EventLater);
  }
}

void Simulator::At(Tick t, EventFn fn) {
  At(t, running_node_ != kNoNode ? running_node_ : root_node_, std::move(fn));
}

void Simulator::At(Tick t, NodeId node, EventFn fn) {
  // Scheduling in the past would silently reorder the event ahead of
  // already-queued same-tick work; treat it as a bug, and clamp in release
  // so the clock still never rewinds.
  ROCKSTEADY_DCHECK_GE(t, now_);
  if (t < now_) {
    t = now_;
  }
  if (lane_mode_) {
    Enqueue(t, LaneKey(node), std::move(fn));
    return;
  }
  Event* e = AllocEvent();
  e->time = t;
  e->seq = next_seq_++;
  e->fn = std::move(fn);
  InsertQueued(e);
}

// --- Lane mode (driven by LaneSet; see lane_set.cc for the window loop). ---

void Simulator::BeginLaneMode(LaneSet* lane_set, int lane) {
  lane_mode_ = true;
  lane_set_ = lane_set;
  lane_ = lane;
}

uint64_t Simulator::LaneKey(NodeId exec) {
  ROCKSTEADY_DCHECK(exec < lane_set_->clocks_.size());
  uint64_t origin = 0;  // Root context.
  uint64_t counter;
  if (running_node_ != kNoNode) {
    origin = uint64_t{running_node_} + 1;
    counter = clocks_[running_node_].next++;
  } else {
    counter = lane_set_->root_next_++;  // Every lane is parked.
  }
  ROCKSTEADY_DCHECK(counter < (uint64_t{1} << kCounterBits));
  return uint64_t{exec} << kExecShift | origin << kCounterBits | counter;
}

void Simulator::Enqueue(Tick t, uint64_t key, EventFn fn) {
  // Every lane event names the node it runs on, and only that node's lane
  // may queue it: this is what keeps per-node state single-threaded.
  ROCKSTEADY_DCHECK_EQ(lane_set_->lane_of(static_cast<NodeId>(key >> kExecShift)), lane_);
  ROCKSTEADY_DCHECK_GE(t, now_);
  Event* e = AllocEvent();
  e->time = t;
  e->seq = key;
  e->fn = std::move(fn);
  InsertQueued(e);
}

size_t Simulator::RunWindow(Tick end) {
  clocks_ = lane_set_->clocks_.data();  // Nodes are only added at setup.
  size_t processed = 0;
  while (Event* e = PopMinUpTo(end - 1)) {  // end > 0: it is past a pending event.
    ROCKSTEADY_DCHECK_GE(e->time, now_);
    now_ = e->time;
    running_node_ = static_cast<NodeId>(e->seq >> kExecShift);
    NodeClock& clock = clocks_[running_node_];
    clock.digest = Fnv(clock.digest, e->time, e->seq);
    e->fn();
    e->fn = nullptr;  // Release captures before the event idles in the pool.
    FreeEvent(e);
    processed++;
  }
  running_node_ = kNoNode;
  events_processed_ += processed;
  return processed;
}

size_t Simulator::Run() {
  size_t processed = 0;
  while (Event* e = PopMinUpTo(~Tick{0})) {
    ROCKSTEADY_DCHECK_GE(e->time, now_);
    now_ = e->time;
    trace_hash_ = Fnv(trace_hash_, e->time, e->seq);
    e->fn();
    e->fn = nullptr;  // Release captures before the event idles in the pool.
    FreeEvent(e);
    processed++;
  }
  events_processed_ += processed;
  return processed;
}

size_t Simulator::RunUntil(Tick t) {
  // The clock never rewinds: RunUntil into the past is a checked error and
  // a no-op in release (no events run, now() is unchanged).
  ROCKSTEADY_DCHECK_GE(t, now_);
  size_t processed = 0;
  while (Event* e = PopMinUpTo(t)) {
    ROCKSTEADY_DCHECK_GE(e->time, now_);
    now_ = e->time;
    trace_hash_ = Fnv(trace_hash_, e->time, e->seq);
    e->fn();
    e->fn = nullptr;
    FreeEvent(e);
    processed++;
  }
  if (now_ < t) {
    now_ = t;
  }
  events_processed_ += processed;
  return processed;
}

}  // namespace rocksteady
