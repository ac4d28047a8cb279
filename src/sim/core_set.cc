#include "src/sim/core_set.h"

#include <cassert>
#include <utility>

namespace rocksteady {

CoreSet::CoreSet(Simulator* sim, int num_workers)
    : sim_(sim), num_workers_(num_workers), idle_workers_(num_workers) {
  assert(num_workers >= 1);
}

void CoreSet::EnqueueDispatch(Tick cost, DispatchFn fn) {
  if (halted_) {
    return;
  }
  cost = Slow(cost);
  const Tick start = std::max(sim_->now(), dispatch_free_at_);
  dispatch_free_at_ = start + cost;
  if (dispatch_util_ != nullptr) {
    dispatch_util_->AddBusy(start, cost);
  }
  total_dispatch_busy_ += cost;
  const uint64_t epoch = epoch_;
  sim_->At(dispatch_free_at_, node_, [this, epoch, fn = std::move(fn)]() mutable {
    if (halted_ || epoch != epoch_) {
      return;
    }
    fn();
  });
}

void CoreSet::EnqueueWorker(WorkerTask task) {
  Enqueue(AnyTask{task.priority, std::move(task.work), std::move(task.done), nullptr});
}

void CoreSet::EnqueueWorkerHeld(HeldTask task) {
  Enqueue(AnyTask{task.priority, nullptr, nullptr, std::move(task.work)});
}

void CoreSet::Enqueue(AnyTask task) {
  if (halted_) {
    return;
  }
  if (idle_workers_ > 0) {
    StartWorker(std::move(task));
    return;
  }
  queues_[static_cast<size_t>(task.priority)].push_back(std::move(task));
}

void CoreSet::StartWorker(AnyTask task) {
  assert(idle_workers_ > 0);
  idle_workers_--;
  const uint64_t epoch = epoch_;

  if (task.held_work != nullptr) {
    // Held task: the worker stays busy until the external finish callback
    // fires; busy time is charged at release.
    const Tick start = sim_->now();
    auto finish = [this, epoch, start](Tick extra_cost) {
      sim_->After(Slow(extra_cost), node_, [this, epoch, start] {
        if (epoch != epoch_) {
          return;
        }
        const Tick busy = sim_->now() - start;
        if (worker_util_ != nullptr) {
          worker_util_->AddBusy(start, busy);
        }
        total_worker_busy_ += busy;
        WorkerFinished({}, epoch);
      });
    };
    task.held_work(std::move(finish));
    return;
  }

  // Timed task: real state mutation happens now; the worker is then busy for
  // the returned service time.
  const Tick cost = Slow(task.work());
  if (worker_util_ != nullptr) {
    worker_util_->AddBusy(sim_->now(), cost);
  }
  total_worker_busy_ += cost;
  sim_->After(cost, node_, [this, epoch, done = std::move(task.done)]() mutable {
    WorkerFinished(std::move(done), epoch);
  });
}

void CoreSet::WorkerFinished(DoneFn done, uint64_t epoch) {
  if (epoch != epoch_) {
    return;  // The server crashed while this task was in flight.
  }
  idle_workers_++;
  if (done) {
    done();
  }
  PumpQueues();
}

void CoreSet::PumpQueues() {
  if (halted_) {
    return;
  }
  // Pull from the highest-priority queue with entries.
  for (auto& queue : queues_) {
    while (!queue.empty() && idle_workers_ > 0) {
      AnyTask next = std::move(queue.front());
      queue.pop_front();
      StartWorker(std::move(next));
    }
    if (idle_workers_ == 0) {
      return;
    }
  }
}

void CoreSet::Halt() {
  halted_ = true;
  epoch_++;
  for (auto& queue : queues_) {
    queue.clear();
  }
  idle_workers_ = num_workers_;
  dispatch_free_at_ = sim_->now();
}

void CoreSet::Restart() { halted_ = false; }

}  // namespace rocksteady
