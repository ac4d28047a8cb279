// Cluster operations: orchestration that an operator (or an operations
// controller) runs against a live cluster, built purely out of the existing
// crash/recovery/lifecycle machinery.
//
// RollingRestartOrchestrator performs a rolling restart: each kActive master
// in turn is crashed, detector-driven recovery re-homes its tablets (and
// resolves any in-flight migration lineage), the master restarts empty after
// a configurable delay, and the next master is only touched after a settle
// window — so at every instant at most one master is down and the ownership
// map is converging. Standby, draining, decommissioned, and already-crashed
// masters are skipped: draining masters are mid-evacuation (restarting one
// would turn a planned drain into an unplanned recovery) and standbys hold
// nothing worth cycling.
//
// The orchestrator deliberately reuses the failure path for restarts — a
// rolling restart is "controlled failure, one at a time" — which means the
// whole fault-tolerance stack (detection, lineage resolution, re-homing,
// backup replay) is exercised by routine operations, not just by disasters.
//
// Crashing and restarting a master are operator actions from outside the
// cluster, so they run in root context: Start() and every later step are
// safe-point tasks (the recovery-complete hook, a coordinator event, posts
// the restart one restart_delay ahead), which keeps the whole cycle
// lane-count-invariant.
#ifndef ROCKSTEADY_SRC_CLUSTER_OPERATIONS_H_
#define ROCKSTEADY_SRC_CLUSTER_OPERATIONS_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/cluster/cluster.h"

namespace rocksteady {

// Pacing for a rolling restart. Both windows are policy, not correctness:
// recovery completion is what gates the restart, the delay only keeps the
// rejoin clear of the recovery tail.
inline constexpr Tick kRestartDelayNs = 1 * kMillisecond;
inline constexpr Tick kRestartSettleNs = 5 * kMillisecond;

struct RollingRestartOptions {
  // Wait after a master's recovery completes before restarting it (a
  // restarted-but-unrecovered master must never rejoin as an owner).
  Tick restart_delay_ns = kRestartDelayNs;
  // Wait after a master restarts before crashing the next one, giving the
  // planner a window to re-place load between steps.
  Tick settle_ns = kRestartSettleNs;
};

struct RollingRestartStats {
  uint64_t restarts_started = 0;    // Masters crashed by the orchestrator.
  uint64_t restarts_completed = 0;  // ...that came back up.
  uint64_t skipped = 0;             // Non-kActive or already-crashed masters.
};

class RollingRestartOrchestrator {
 public:
  explicit RollingRestartOrchestrator(Cluster* cluster,
                                      const RollingRestartOptions& options = {});
  ~RollingRestartOrchestrator();

  RollingRestartOrchestrator(const RollingRestartOrchestrator&) = delete;
  RollingRestartOrchestrator& operator=(const RollingRestartOrchestrator&) = delete;

  // Begins the rolling restart over every currently-kActive master, in id
  // order, one at a time. Root context only (setup code or a safe-point
  // task): it crashes the first master directly. Starts the coordinator's failure detector if it is
  // not already running (the crash must be *detected*, not announced — the
  // restart rides the real failure path). `done` fires after the last
  // restarted master's settle window. Chains with (saves and restores, and
  // forwards to) any pre-installed on_recovery_complete hook. Calling Start
  // while running is a no-op.
  void Start(std::function<void()> done = nullptr);

  bool running() const { return running_; }
  const RollingRestartStats& stats() const { return stats_; }

 private:
  void StepNext();
  void OnRecoveryComplete(ServerId id);

  Cluster* cluster_;
  RollingRestartOptions options_;
  RollingRestartStats stats_;
  bool running_ = false;
  size_t next_index_ = 0;     // Next master index to consider.
  ServerId in_flight_ = 0;    // Master currently being cycled (0 = none).
  std::function<void()> done_;
  std::function<void(ServerId)> saved_hook_;  // Prior on_recovery_complete.
  // Guards safe-point tasks across orchestrator destruction.
  std::shared_ptr<bool> alive_;
};

}  // namespace rocksteady

#endif  // ROCKSTEADY_SRC_CLUSTER_OPERATIONS_H_
