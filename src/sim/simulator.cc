#include "src/sim/simulator.h"

#include <algorithm>
#include <utility>

#include "src/sim/lane_set.h"

namespace rocksteady {

// Overflow heap order: min (time, seq) at the front.
bool Simulator::EventLater(const Event* a, const Event* b) {
  return a->time != b->time ? a->time > b->time : a->seq > b->seq;
}

Simulator::Simulator() = default;

Simulator::Simulator(LaneSet* lane_set, int lane)
    : lane_(lane), lane_set_(lane_set), root_node_(kNoNode) {}

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
  e->prev = e;  // Out of the queue: a Timer on it is spent.
  e->next = free_list_;
  free_list_ = e;
  free_count_++;
}

void Simulator::InsertRing(Event* e, uint64_t ab) {
  BucketList& bucket = buckets_[ab & kBucketMask];
  // Insert sorted by (time, seq), scanning from the tail: a bucket spans
  // ~1 us, so a fresh event nearly always sorts last and appends in O(1).
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
  // in (time, seq) order, so each lands at its bucket's tail in O(1);
  // cancelled ones go back to the pool instead.
  while (!overflow_.empty() && BucketOf(overflow_.front()->time) < win_base_ + kNumBuckets) {
    std::pop_heap(overflow_.begin(), overflow_.end(), &EventLater);
    Event* e = overflow_.back();
    overflow_.pop_back();
    if (e->next == e) {
      overflow_cancelled_--;
      FreeEvent(e);
    } else {
      InsertRing(e, BucketOf(e->time));
    }
  }
}

void Simulator::DropCancelledOverflowFront() {
  while (overflow_cancelled_ > 0 && overflow_.front()->next == overflow_.front()) {
    std::pop_heap(overflow_.begin(), overflow_.end(), &EventLater);
    FreeEvent(overflow_.back());
    overflow_.pop_back();
    overflow_cancelled_--;
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
    DropCancelledOverflowFront();
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
  e->prev = e;  // Out of the queue: a Timer on it is spent.
  // Slide the window with the clock: it starts at the bucket being
  // dispatched, so it always reaches a full window ahead of now().
  if (ab > win_base_) {
    AdvanceWindowTo(ab);
  }
  return e;
}

bool Simulator::PeekMinTime(Tick* t) {
  if (ring_count_ > 0) {
    const uint64_t ab = FirstOccupiedBucket();
    scan_ab_ = ab;  // Cursor cache only; peeking never slides the window.
    *t = buckets_[ab & kBucketMask].head->time;
    return true;
  }
  DropCancelledOverflowFront();
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

void Simulator::At(Tick t, NodeId node, EventFn fn) { AtCancellable(t, node, std::move(fn)); }

Simulator::Timer Simulator::AtCancellable(Tick t, NodeId node, EventFn fn) {
  // Scheduling in the past would silently reorder the event ahead of
  // already-queued same-tick work; treat it as a bug, and clamp in release
  // so the clock still never rewinds.
  ROCKSTEADY_DCHECK_GE(t, now_);
  if (t < now_) {
    t = now_;
  }
  Timer timer;
  timer.event_ = Enqueue(t, LaneKey(node), std::move(fn));
  timer.seq_ = timer.event_->seq;
  return timer;
}

void Simulator::Cancel(Timer* timer) {
  ROCKSTEADY_DCHECK(timer->armed());  // Each timer is cancelled at most once.
  Event* e = timer->event_;
  // The pool slot still holds the timer's event (its key is unique), and
  // that event is still queued: not dispatched and not cancelled before.
  const bool same_event = e->seq == timer->seq_;
  const bool still_queued = e->prev != e && e->next != e;
  ROCKSTEADY_DCHECK(same_event);
  ROCKSTEADY_DCHECK(still_queued);
  ROCKSTEADY_DCHECK(lane_set_ == nullptr ||
                    lane_set_->lane_of(static_cast<NodeId>(e->seq >> kExecShift)) == lane_);
  *timer = Timer();
  e->fn = nullptr;  // Release captures now, wherever the event waits.
  const uint64_t ab = BucketOf(e->time);
  if (ab >= win_base_ + kNumBuckets) {
    // Overflow heap: no O(1) removal, so mark it; it is dropped when it
    // reaches the heap's front or the window adopts it.
    e->next = e;
    overflow_cancelled_++;
    return;
  }
  const size_t slot = ab & kBucketMask;
  BucketList& bucket = buckets_[slot];
  if (e->prev != nullptr) {
    e->prev->next = e->next;
  } else {
    bucket.head = e->next;
  }
  if (e->next != nullptr) {
    e->next->prev = e->prev;
  } else {
    bucket.tail = e->prev;
  }
  if (bucket.head == nullptr) {
    occupancy_[slot >> 6] &= ~(1ull << (slot & 63));
  }
  ring_count_--;
  FreeEvent(e);
}

// --- Keys and dispatch (a LaneSet drives the window loop; lane_set.cc). ---

uint64_t Simulator::LaneKey(NodeId exec) {
  ROCKSTEADY_DCHECK(lane_set_ != nullptr ? exec < lane_set_->clocks_.size() : exec == 0);
  uint64_t origin = 0;  // Root context.
  uint64_t counter;
  if (running_node_ != kNoNode) {
    origin = uint64_t{running_node_} + 1;
    counter = clocks_[running_node_].next++;
  } else {
    // Every lane is parked.
    counter = (lane_set_ != nullptr ? lane_set_->root_next_ : solo_root_next_)++;
  }
  ROCKSTEADY_DCHECK(counter < (uint64_t{1} << kCounterBits));
  return uint64_t{exec} << kExecShift | origin << kCounterBits | counter;
}

Simulator::Event* Simulator::Enqueue(Tick t, uint64_t key, EventFn fn) {
  // Every event names the node it runs on, and only that node's lane may
  // queue it: this is what keeps per-node state single-threaded.
  ROCKSTEADY_DCHECK(lane_set_ == nullptr ||
                    lane_set_->lane_of(static_cast<NodeId>(key >> kExecShift)) == lane_);
  ROCKSTEADY_DCHECK_GE(t, now_);
  Event* e = AllocEvent();
  e->time = t;
  e->seq = key;
  e->fn = std::move(fn);
  InsertQueued(e);
  return e;
}

size_t Simulator::RunWindow(Tick end) {
  if (lane_set_ != nullptr) {
    clocks_ = lane_set_->clocks_.data();  // Nodes are only added at setup.
  }
  size_t processed = 0;
  window_end_ = end;
  while (Event* e = PopMinUpTo(window_end_ - 1)) {  // > 0: past a pending event.
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

void Simulator::AtSafePoint(Tick t, std::function<void()> fn) {  // lint:allow-churn — cold.
  ROCKSTEADY_DCHECK(lane_set_ != nullptr);
  if (running_node_ == kNoNode) {
    lane_set_->AtSafePoint(t, std::move(fn));
    return;
  }
  lane_set_->PostSafePoint(this, t, std::move(fn));
}

size_t Simulator::Run() {
  ROCKSTEADY_DCHECK(lane_set_ == nullptr);
  return RunWindow(~Tick{0});
}

size_t Simulator::RunUntil(Tick t) {
  // The clock never rewinds: RunUntil into the past is a checked error and
  // a no-op in release (no events run, now() is unchanged).
  ROCKSTEADY_DCHECK(lane_set_ == nullptr);
  ROCKSTEADY_DCHECK_GE(t, now_);
  const size_t processed = RunWindow(t == ~Tick{0} ? t : t + 1);
  if (now_ < t) {
    now_ = t;
  }
  return processed;
}

}  // namespace rocksteady
