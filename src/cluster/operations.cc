#include "src/cluster/operations.h"

#include <algorithm>

#include "src/cluster/coordinator.h"
#include "src/cluster/master_server.h"
#include "src/common/logging.h"

namespace rocksteady {

RollingRestartOrchestrator::RollingRestartOrchestrator(Cluster* cluster,
                                                       const RollingRestartOptions& options)
    : cluster_(cluster), options_(options), alive_(std::make_shared<bool>(true)) {}

RollingRestartOrchestrator::~RollingRestartOrchestrator() {
  *alive_ = false;
  if (running_) {
    // Mid-cycle teardown: put the hook back so we don't leave a dangling
    // capture of `this` installed on the coordinator.
    cluster_->coordinator().on_recovery_complete = saved_hook_;
  }
}

void RollingRestartOrchestrator::Start(std::function<void()> done) {
  if (running_) {
    return;
  }
  running_ = true;
  next_index_ = 0;
  in_flight_ = 0;
  done_ = std::move(done);
  Coordinator& coordinator = cluster_->coordinator();
  if (!coordinator.failure_detector_running()) {
    // The crash below must be *detected*: restarts ride the real failure
    // path (detection -> lineage resolution -> re-homing -> replay).
    LOG_INFO("operations: rolling restart starting the failure detector");
    coordinator.StartFailureDetector();
  }
  saved_hook_ = coordinator.on_recovery_complete;
  coordinator.on_recovery_complete = [this, alive = alive_](ServerId id) {
    if (*alive) {
      OnRecoveryComplete(id);
    }
  };
  LOG_INFO("operations: rolling restart begins over %zu masters",
           cluster_->num_masters());
  StepNext();
}

void RollingRestartOrchestrator::StepNext() {
  Coordinator& coordinator = cluster_->coordinator();
  while (next_index_ < cluster_->num_masters()) {
    const size_t index = next_index_++;
    MasterServer& master = cluster_->master(index);
    if (!coordinator.up(master.id()) ||
        coordinator.lifecycle(master.id()) != ServerLifecycle::kActive) {
      // Draining masters are mid-evacuation (a restart would turn a planned
      // drain into an unplanned recovery); standby/decommissioned masters
      // hold nothing worth cycling; crashed ones are already being handled.
      stats_.skipped++;
      continue;
    }
    in_flight_ = master.id();
    stats_.restarts_started++;
    LOG_INFO("operations: rolling restart cycles master %u", master.id());
    master.Crash();
    return;  // OnRecoveryComplete drives the rest of this step.
  }
  // All masters cycled: restore the hook and report.
  running_ = false;
  coordinator.on_recovery_complete = saved_hook_;
  saved_hook_ = nullptr;
  LOG_INFO("operations: rolling restart complete (%llu cycled, %llu skipped)",
           static_cast<unsigned long long>(stats_.restarts_completed),
           static_cast<unsigned long long>(stats_.skipped));
  if (done_) {
    auto done = std::move(done_);
    done_ = nullptr;
    done();
  }
}

void RollingRestartOrchestrator::OnRecoveryComplete(ServerId id) {
  // Forward first: the chaos harness (or whoever installed the prior hook)
  // may be cycling other masters concurrently with our rolling restart.
  if (saved_hook_) {
    saved_hook_(id);
  }
  if (!running_ || id != in_flight_) {
    return;  // Someone else's recovery (concurrent chaos), not our step.
  }
  // Rejoin only after re-homing finished, then give the cluster a settle
  // window before the next master goes down. Restart and the next crash are
  // operator actions on other nodes: they run as safe-point tasks.
  Simulator& sim = cluster_->coordinator().sim();
  const Tick restart_at = sim.now() + std::max(options_.restart_delay_ns,
                                               cluster_->lanes()->lookahead());
  sim.AtSafePoint(restart_at, [this, alive = alive_, id] {
    if (!*alive || !running_) {
      return;
    }
    MasterServer* master = cluster_->coordinator().master(id);
    if (master->crashed()) {
      master->Restart();
      stats_.restarts_completed++;
    }
    in_flight_ = 0;
    cluster_->AtSafePoint(cluster_->now() + options_.settle_ns, [this, alive = alive_] {
      if (*alive && running_) {
        StepNext();
      }
    });
  });
}

}  // namespace rocksteady
