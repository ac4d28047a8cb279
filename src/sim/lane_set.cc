#include "src/sim/lane_set.h"

#include <algorithm>
#include <utility>

#include "src/common/dcheck.h"
#include "src/common/hash.h"

namespace rocksteady {

namespace {

void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

}  // namespace

// Every kYieldInterval-th round yields instead of pausing, so on an
// oversubscribed host the lane being waited for gets the core.
void LaneSet::AwaitChange(const Epoch& word, uint32_t old) {
  for (int i = 1; i <= kSpinRounds; i++) {
    if (word.load(std::memory_order_acquire) != old) {
      return;
    }
    if (i % kYieldInterval == 0) {
      std::this_thread::yield();  // lint:allow-nondeterminism — scheduling hint only.
    } else {
      CpuRelax();
    }
  }
  word.wait(old, std::memory_order_acquire);
}

LaneSet::LaneSet(const Config& config)
    : config_(config), lookahead_(config.lanes > 1 ? config.lookahead : kNoEvent) {
  ROCKSTEADY_DCHECK_GE(config.lanes, 1);
  ROCKSTEADY_DCHECK_GE(config.lookahead, Tick{1});
  const auto n = static_cast<size_t>(config.lanes);
  for (size_t l = 0; l < n; l++) {
    sims_.push_back(std::unique_ptr<Simulator>(new Simulator(this, static_cast<int>(l))));
  }
  mail_.resize(2 * n * n);
  fronts_.resize(2 * n);
  outbox_.resize(n);
  posted_.resize(n);
}

LaneSet::~LaneSet() { StopWorkers(); }

void LaneSet::AssignNode(NodeId node, int lane) {
  ROCKSTEADY_DCHECK_GE(lane, 0);
  ROCKSTEADY_DCHECK(lane < lanes());
  ROCKSTEADY_DCHECK_EQ(static_cast<size_t>(node), lane_of_.size());
  ROCKSTEADY_DCHECK(node < Simulator::kMaxLaneNodes);
  lane_of_.push_back(lane);
  clocks_.emplace_back();
  // One private stream per node, derived from the run seed: the stream a
  // draw comes from depends on *which node* draws, not on lane placement,
  // so the draw sequence is invariant across lane counts and threading.
  node_rng_.push_back(NodeStream{Random(Mix64(config_.seed + 0x9E3779B97F4A7C15ull * (node + 1)))});
}

void LaneSet::PostCrossLane(Simulator* src, NodeId to, Tick deliver, EventFn fn) {
  const int dst_lane = lane_of(to);
  ROCKSTEADY_DCHECK(dst_lane != src->lane_);
  const uint64_t key = src->LaneKey(to);
  if (src->running_node_ == Simulator::kNoNode) {
    // Root context (setup / safe-point task): every lane is parked, so the
    // delivery enters the destination queue directly.
    sims_[static_cast<size_t>(dst_lane)]->Enqueue(deliver, key, std::move(fn));
    return;
  }
  Outbox& out = outbox_[static_cast<size_t>(src->lane_)];
  ROCKSTEADY_DCHECK_GE(deliver, out.horizon);
  const auto n = static_cast<size_t>(lanes());
  mail_[(static_cast<size_t>(out.parity) * n + static_cast<size_t>(src->lane_)) * n +
        static_cast<size_t>(dst_lane)]
      .push_back(CrossEntry{deliver, key, std::move(fn)});
  out.mail_min = std::min(out.mail_min, deliver);
}

void LaneSet::AtSafePoint(Tick t, std::function<void()> fn) {  // lint:allow-churn — cold, a handful per run.
  ROCKSTEADY_DCHECK(!in_windows_);
  InsertSafePoint(SafePoint{t, safe_point_order_++, std::move(fn)});
}

void LaneSet::PostSafePoint(Simulator* src, Tick t, std::function<void()> fn) {  // lint:allow-churn — cold.
  // One lookahead ahead is at or past every lane's current horizon, so no
  // lane has run an event at or after `t` yet — at any lane count.
  ROCKSTEADY_DCHECK_GE(t, src->now_ + config_.lookahead);
  const uint64_t order =
      src->LaneKey(src->running_node_) & ((uint64_t{1} << Simulator::kExecShift) - 1);
  posted_[static_cast<size_t>(src->lane_)].push_back(SafePoint{t, order, std::move(fn)});
  Outbox& out = outbox_[static_cast<size_t>(src->lane_)];
  out.safe_min = std::min(out.safe_min, t);
  // One lane runs to the next safe point in a single window: stop it here.
  src->window_end_ = std::min(src->window_end_, t);
}

void LaneSet::InsertSafePoint(SafePoint sp) {
  auto pos = std::upper_bound(
      safe_points_.begin(), safe_points_.end(), sp,
      [](const SafePoint& a, const SafePoint& b) {
        return a.t != b.t ? a.t < b.t : a.order < b.order;
      });
  safe_points_.insert(pos, std::move(sp));
}

void LaneSet::AdoptSafePoints() {
  for (std::vector<SafePoint>& posted : posted_) {
    for (SafePoint& sp : posted) {
      InsertSafePoint(std::move(sp));
    }
    posted.clear();
  }
}

Tick LaneSet::GlobalMinEventTime() {
  Tick gm = kNoEvent;
  for (auto& sim : sims_) {
    Tick t;
    if (sim->PeekMinTime(&t) && t < gm) {
      gm = t;
    }
  }
  return gm;
}

uint64_t LaneSet::trace_hash() const {
  uint64_t hash = 0xcbf29ce484222325ull;  // FNV offset basis.
  for (const Simulator::NodeClock& clock : clocks_) {
    hash = (hash ^ clock.digest) * 0x100000001b3ull;
  }
  return hash;
}

size_t LaneSet::events_processed() const {
  size_t total = 0;
  for (const auto& sim : sims_) {
    total += sim->events_processed();
  }
  return total;
}

Tick LaneSet::Horizon(Tick global_min, Tick cap) const {
  const Tick end = global_min + lookahead_;
  return std::min(end < global_min ? kNoEvent : end, cap);  // Saturating add.
}

void LaneSet::Adopt(int lane, int parity) {
  Simulator* sim = sims_[static_cast<size_t>(lane)].get();
  const auto n = static_cast<size_t>(lanes());
  for (size_t src = 0; src < n; src++) {
    std::vector<CrossEntry>& cell =
        mail_[(static_cast<size_t>(parity) * n + src) * n + static_cast<size_t>(lane)];
    for (CrossEntry& entry : cell) {
      sim->Enqueue(entry.time, entry.key, std::move(entry.fn));
    }
    cell.clear();  // Capacity is retained: steady state allocates nothing.
  }
}

void LaneSet::Barrier() {
  // The generation is read before arriving: it cannot move until this
  // thread has arrived. The last arrival resets the count, then publishes
  // the next generation (release), which every waiter acquires.
  const uint32_t gen = generation_.load(std::memory_order_acquire);
  if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == static_cast<uint32_t>(lanes())) {
    arrived_.store(0, std::memory_order_relaxed);
    generation_.store(gen + 1, std::memory_order_release);
    generation_.notify_all();
    return;
  }
  AwaitChange(generation_, gen);
}

void LaneSet::RunWindows(int lane, Tick horizon) {
  const bool all = lane == kAllLanes;
  const int first = all ? 0 : lane;
  const int last = all ? lanes() : lane + 1;
  // Phase hooks fire only when one thread runs every lane.
  const PhaseHooks no_hooks;
  const PhaseHooks& hooks = all ? hooks_ : no_hooks;
  int parity = parity_;
  Tick cap = cap_;  // Pulled in by safe points events post.
  for (;;) {
    for (int l = first; l < last; l++) {
      if (hooks.lane_begin) {
        hooks.lane_begin(l);
      }
      Simulator* sim = sims_[static_cast<size_t>(l)].get();
      Outbox& out = outbox_[static_cast<size_t>(l)];
      out.parity = parity;
      out.horizon = horizon;
      out.mail_min = kNoEvent;
      out.safe_min = kNoEvent;
      sim->RunWindow(horizon);
      LaneFront& front = fronts_[static_cast<size_t>(parity * lanes() + l)];
      if (!sim->PeekMinTime(&front.queue_min)) {
        front.queue_min = kNoEvent;
      }
      front.mail_min = out.mail_min;
      front.safe_min = out.safe_min;
      if (hooks.lane_end) {
        hooks.lane_end(l);
      }
    }
    if (!all) {
      Barrier();
    }
    if (hooks.merge_begin) {
      hooks.merge_begin();
    }
    // Every lane computes the same next start from the published fronts:
    // any pending event is either queued or in a mailbox.
    Tick next = kNoEvent;
    for (int l = 0; l < lanes(); l++) {
      const LaneFront& front = fronts_[static_cast<size_t>(parity * lanes() + l)];
      next = std::min({next, front.queue_min, front.mail_min});
      cap = std::min(cap, front.safe_min);
    }
    for (int l = first; l < last; l++) {
      Adopt(l, parity);
    }
    if (hooks.merge_end) {
      hooks.merge_end();
    }
    parity ^= 1;
    if (first == 0) {
      windows_run_++;
    }
    if (next >= cap) {
      break;
    }
    horizon = Horizon(next, cap);
  }
  if (!all) {
    Barrier();  // Every lane has adopted its mail: the caller may proceed.
  }
  if (first == 0) {
    parity_ = parity;
  }
}

void LaneSet::StartWorkers() {
  if (!workers_.empty()) {
    return;
  }
  const uint32_t epoch = start_.load(std::memory_order_relaxed);
  for (int l = 1; l < lanes(); l++) {
    workers_.emplace_back([this, l, epoch] { WorkerLoop(l, epoch); });
  }
}

void LaneSet::StopWorkers() {
  if (workers_.empty()) {
    return;
  }
  stopping_ = true;
  start_.fetch_add(1, std::memory_order_release);
  start_.notify_all();
  for (std::thread& worker : workers_) {  // lint:allow-nondeterminism — joining persistent lane workers.
    worker.join();
  }
  workers_.clear();
  stopping_ = false;
}

void LaneSet::WorkerLoop(int lane, uint32_t seen) {
  for (;;) {
    AwaitChange(start_, seen);
    seen = start_.load(std::memory_order_acquire);
    if (stopping_) {
      return;
    }
    RunWindows(lane, start_horizon_);
  }
}

size_t LaneSet::Run() {
  const size_t before = events_processed();
  RunLoop(false, 0);
  Tick end = now_;
  for (auto& sim : sims_) {
    end = std::max(end, sim->now());
  }
  // Every lane's clock moves to the last event's time, so root context
  // schedules after the run from the same base at every lane count.
  for (auto& sim : sims_) {
    sim->now_ = end;
  }
  now_ = end;
  return events_processed() - before;
}

size_t LaneSet::RunUntil(Tick t) {
  ROCKSTEADY_DCHECK_GE(t, now_);
  const size_t before = events_processed();
  RunLoop(true, t);
  for (auto& sim : sims_) {
    if (sim->now_ < t) {
      sim->now_ = t;
    }
  }
  now_ = t;
  return events_processed() - before;
}

void LaneSet::RunLoop(bool bounded, Tick until) {
  const bool threaded = config_.threads && lanes() > 1;
  if (threaded) {
    StartWorkers();
  }
  for (;;) {
    Tick gm = GlobalMinEventTime();
    // Run due safe-point tasks: everything before sp.t has executed, nothing
    // at/after sp.t has.
    while (!safe_points_.empty() && safe_points_.front().t <= gm &&
           (!bounded || safe_points_.front().t <= until)) {
      SafePoint sp = std::move(safe_points_.front());
      safe_points_.erase(safe_points_.begin());
      now_ = std::max(now_, sp.t);
      // Advance every lane's clock to the safe point before the task runs:
      // task code schedules relative to now() (directly or through
      // Network::Send), and a lane's last-dispatch time depends on the
      // partition — sp.t is the only lane-count-invariant base. Legal
      // because every pending event is at >= gm >= sp.t.
      for (auto& sim : sims_) {
        sim->now_ = std::max(sim->now_, sp.t);
      }
      sp.fn();
      gm = GlobalMinEventTime();  // The task may have scheduled new events.
    }
    if (gm == kNoEvent || (bounded && gm > until)) {
      break;
    }
    // Windows run until the next safe point or past the RunUntil bound
    // (inclusive of `until`), whichever comes first.
    cap_ = bounded ? until + 1 : kNoEvent;
    if (!safe_points_.empty()) {
      cap_ = std::min(cap_, safe_points_.front().t);
    }
    const Tick horizon = Horizon(gm, cap_);
    in_windows_ = true;
    if (threaded) {
      start_horizon_ = horizon;
      start_.fetch_add(1, std::memory_order_release);
      start_.notify_all();
      RunWindows(0, horizon);
    } else {
      RunWindows(kAllLanes, horizon);
    }
    in_windows_ = false;
    AdoptSafePoints();
  }
}

}  // namespace rocksteady
