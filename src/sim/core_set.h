// RAMCloud's dispatch/worker threading model as simulated resources.
//
// §3.1: "One core handles dispatch; it polls the network for messages, and it
// assigns tasks to worker cores or queues them if no workers are idle. Each
// core runs one thread, and running tasks are never preempted. ... If no
// cores are available, the task is placed in a queue corresponding to its
// priority. When a worker becomes available ... it is assigned a task from
// the front of the highest-priority queue with any entries."
//
// CoreSet models exactly that: a serial dispatch resource plus N worker
// resources fed from strict non-preemptive priority FIFOs. Tail latency in
// every experiment emerges from this queueing discipline.
//
// Hot path: dispatch functions and worker work/done callbacks are inline
// (64 capture bytes) so enqueueing and completing a task allocates nothing;
// the epoch-guard wrappers the CoreSet adds fit EventFn's 88 bytes exactly.
#ifndef ROCKSTEADY_SRC_SIM_CORE_SET_H_
#define ROCKSTEADY_SRC_SIM_CORE_SET_H_

#include <array>
#include <cstdint>
#include <deque>
#include <functional>

#include "src/common/inline_function.h"
#include "src/common/timeseries.h"
#include "src/common/types.h"
#include "src/sim/simulator.h"

namespace rocksteady {

// Worker-task priorities, highest first. §4.1: PriorityPulls were configured
// with the highest priority in the system; bulk Pulls (and replay) with the
// lowest; client requests in between.
enum class Priority : uint8_t {
  kPriorityPull = 0,
  kClient = 1,
  kReplication = 2,
  kMigration = 3,  // Bulk pulls on the source, replay on the target.
};
inline constexpr size_t kNumPriorities = 4;

// Inline capture budget for core callbacks. 64 holds every hot-path closure
// (the widest — a master's RPC-completion `done` — captures a `this`, a
// shared handle, and a small value), and leaves the CoreSet's own 24-byte
// {this, epoch, callback} wrappers exactly at EventFn's 88.
inline constexpr size_t kCoreInlineBytes = 64;
using DispatchFn = InlineFunction<void(), kCoreInlineBytes>;
using TaskFn = InlineFunction<Tick(), kCoreInlineBytes>;
using DoneFn = InlineFunction<void(), kCoreInlineBytes>;

class CoreSet {
 public:
  // A worker task: `work` runs when a worker picks the task up and returns
  // the simulated service time; `done` (optional) runs at completion.
  struct WorkerTask {
    Priority priority;
    TaskFn work;
    DoneFn done;
  };

  CoreSet(Simulator* sim, int num_workers);

  CoreSet(const CoreSet&) = delete;
  CoreSet& operator=(const CoreSet&) = delete;

  // The node these cores belong to: every event they schedule runs on it.
  // Set once by RpcSystem::CreateEndpoint.
  void BindNode(NodeId node) { node_ = node; }

  // Serializes `fn` on the dispatch core; `fn` runs after `cost` of dispatch
  // time (and after any earlier dispatch work).
  void EnqueueDispatch(Tick cost, DispatchFn fn);

  // Hands a task to an idle worker, or queues it at its priority.
  void EnqueueWorker(WorkerTask task);

  // A task that *holds* its worker until externally finished — used to model
  // synchronous RPC waits inside a worker (the naive PriorityPull design the
  // paper compares against in §4.4, where "workers at the target wait for
  // PriorityPulls to return"). `work` runs when a worker is acquired and
  // receives a finish callback; the worker stays busy (and is charged as
  // busy) until finish(extra_cost) is invoked and `extra_cost` more time
  // elapses. Held tasks are rare (one per synchronous wait, off the steady-
  // state path), so the copyable std::function callback shape is kept.
  struct HeldTask {
    Priority priority;
    std::function<void(std::function<void(Tick)> finish)> work;  // lint:allow-churn
  };
  void EnqueueWorkerHeld(HeldTask task);

  int num_workers() const { return num_workers_; }
  size_t QueuedTasks(Priority p) const { return queues_[static_cast<size_t>(p)].size(); }

  // Admission control: an optional per-priority queue bound (0 = unbounded).
  // CoreSet never drops work itself — handlers consult QueueFull() before
  // enqueueing and reject with Status::kRetryLater, so the sender's seeded
  // backoff machinery paces retries instead of work vanishing silently.
  void SetQueueBound(Priority p, size_t bound) { bounds_[static_cast<size_t>(p)] = bound; }
  bool QueueFull(Priority p) const {
    const size_t bound = bounds_[static_cast<size_t>(p)];
    return bound != 0 && queues_[static_cast<size_t>(p)].size() >= bound;
  }

  // How far behind the dispatch core is right now (0 when idle): one of the
  // source-load signals piggybacked on pull replies for adaptive pacing.
  Tick DispatchBacklog() const {
    return dispatch_free_at_ > sim_->now() ? dispatch_free_at_ - sim_->now() : 0;
  }

  // Optional utilization recorders (Figure 11 / Figure 14 timelines).
  void set_dispatch_util(UtilizationTimeline* util) { dispatch_util_ = util; }
  void set_worker_util(UtilizationTimeline* util) { worker_util_ = util; }

  // Lifetime totals, for load summaries (Figure 3's CPU-load panel).
  Tick total_dispatch_busy() const { return total_dispatch_busy_; }
  Tick total_worker_busy() const { return total_worker_busy_; }
  void ResetBusyCounters() {
    total_dispatch_busy_ = 0;
    total_worker_busy_ = 0;
  }

  // Simulates a server crash: all queued work is dropped and new work is
  // ignored until Restart().
  void Halt();
  void Restart();
  bool halted() const { return halted_; }

  // Bumped on every Halt(); lets layers above stamp in-flight work and
  // discard completions that straddle a crash.
  uint64_t epoch() const { return epoch_; }

  // Straggler injection: every dispatch and worker cost is multiplied by
  // `factor` (>= 1.0) until reset to 1.0. Models a core that slows down
  // (thermal throttling, noisy neighbor) without stopping.
  void SetSlowdown(double factor) { slowdown_ = factor < 1.0 ? 1.0 : factor; }

 private:
  // Internal unified task: either a timed task (work/done) or a held task.
  struct AnyTask {
    Priority priority;
    TaskFn work;
    DoneFn done;
    std::function<void(std::function<void(Tick)>)> held_work;  // Non-null = held.  lint:allow-churn
  };

  void Enqueue(AnyTask task);
  void StartWorker(AnyTask task);
  void WorkerFinished(DoneFn done, uint64_t epoch);
  void PumpQueues();
  Tick Slow(Tick cost) const {
    return slowdown_ == 1.0 ? cost : static_cast<Tick>(static_cast<double>(cost) * slowdown_);
  }

  Simulator* sim_;
  NodeId node_ = 0;
  int num_workers_;
  int idle_workers_;
  bool halted_ = false;
  double slowdown_ = 1.0;
  // Bumped on Halt(); in-flight completions from an older epoch are stale
  // and must not return their worker to the pool.
  uint64_t epoch_ = 0;

  Tick dispatch_free_at_ = 0;
  std::array<std::deque<AnyTask>, kNumPriorities> queues_;
  std::array<size_t, kNumPriorities> bounds_{};  // 0 = unbounded.

  UtilizationTimeline* dispatch_util_ = nullptr;
  UtilizationTimeline* worker_util_ = nullptr;
  Tick total_dispatch_busy_ = 0;
  Tick total_worker_busy_ = 0;
};

}  // namespace rocksteady

#endif  // ROCKSTEADY_SRC_SIM_CORE_SET_H_
