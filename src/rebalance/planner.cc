#include "src/rebalance/planner.h"

#include <algorithm>

#include "src/common/logging.h"

namespace rocksteady {
namespace {

inline uint64_t AbsDiff(uint64_t a, uint64_t b) { return a > b ? a - b : b - a; }

}  // namespace

RebalancePlanner::RebalancePlanner(Cluster* cluster, const RebalancerOptions& options)
    : cluster_(cluster),
      options_(options),
      frames_(cluster->num_masters()),
      alive_(std::make_shared<bool>(true)) {
  cluster_->coordinator().RegisterPiggybackHandler(
      PiggybackKind::kLoadTelemetry, [this](ServerId from, const PiggybackBlob& blob) {
        LoadTelemetryFrame frame;
        if (!DecodeLoadFrame(blob.bytes, &frame) || frame.server != from) {
          return;  // Malformed or misattributed: drop, never trust.
        }
        InjectFrame(frame);
      });
  cluster_->coordinator().on_migration_committed = [this](ServerId source, ServerId target,
                                                          TableId table) {
    OnCommitted(source, target, table);
  };
}

RebalancePlanner::~RebalancePlanner() {
  *alive_ = false;
  running_ = false;
  cluster_->coordinator().ClearPiggybackHandler(PiggybackKind::kLoadTelemetry);
  cluster_->coordinator().on_migration_committed = nullptr;
}

void RebalancePlanner::Start() {
  if (running_) {
    return;
  }
  running_ = true;
  ScheduleRound();
}

void RebalancePlanner::Stop() { running_ = false; }

void RebalancePlanner::ScheduleRound() {
  cluster_->coordinator().sim().After(kPlannerIntervalNs, [this, alive = alive_] {
    if (!*alive || !running_) {
      return;
    }
    PlanOnce();
    ScheduleRound();
  });
}

void RebalancePlanner::InjectFrame(const LoadTelemetryFrame& frame) {
  if (frame.server == 0 || frame.server > frames_.size()) {
    return;
  }
  frames_[frame.server - 1] = frame;
}

void RebalancePlanner::OnCommitted(ServerId source, ServerId target, TableId table) {
  const auto matches = [&](const Flight& f) {
    return f.source == source && f.target == target && f.table == table;
  };
  if (hot_flight_.has_value() && matches(*hot_flight_)) {
    hot_flight_.reset();
    stats_.migrations_completed++;
    if (state_ == State::kMigrating) {
      state_ = State::kCooldown;
      cooldown_until_ = cluster_->coordinator().sim().now() + kCooldownNs;
    }
  }
  stats_.drain_migrations_completed += std::erase_if(drain_flights_, matches);
}

void RebalancePlanner::SendMigrateTablet(const Flight& flight) {
  Coordinator& coordinator = cluster_->coordinator();
  auto request = std::make_unique<MigrateTabletRequest>();
  request->table = flight.table;
  request->start_hash = flight.start_hash;
  request->end_hash = flight.end_hash;
  request->source = flight.source;
  coordinator.rpc().Call(coordinator.node(), coordinator.NodeOf(flight.target),
                         std::move(request), [](Status, std::unique_ptr<RpcResponse>) {},
                         cluster_->costs().migration_rpc_timeout_ns);
}

bool RebalancePlanner::CollectLoads(std::vector<uint64_t>* loads, std::vector<bool>* fresh,
                                    Tick now) {
  const size_t n = cluster_->num_masters();
  loads->assign(n, 0);
  fresh->assign(n, false);
  size_t fresh_count = 0;
  for (size_t i = 0; i < n; i++) {
    const auto id = static_cast<ServerId>(i + 1);
    if (!cluster_->coordinator().up(id) ||
        cluster_->coordinator().lifecycle(id) != ServerLifecycle::kActive) {
      // Hot-spot balancing is an active-members game: standbys have no load
      // to report, draining masters are drain mode's responsibility, and a
      // decommissioned server's idle frame would only drag down the mean.
      continue;
    }
    const auto& frame = frames_[i];
    if (!frame.has_value() || now - frame->sampled_at > kTelemetryStalenessNs) {
      continue;
    }
    (*fresh)[i] = true;
    (*loads)[i] = frame->TotalOpsPerSec();
    fresh_count++;
  }
  return fresh_count >= kMinFreshFrames;
}

KeyHash RebalancePlanner::ChooseSplitBoundary(const TabletLoadSample& tablet,
                                              uint64_t desired_ops) const {
  const uint64_t total_rate = tablet.ops_per_sec();
  uint64_t total_window = 0;
  for (uint64_t ops : tablet.bin_ops) {
    total_window += ops;
  }
  if (total_rate == 0 || total_window == 0 || desired_ops >= total_rate) {
    return 0;
  }
  // Window-count threshold proportional to the desired share of the rate.
  const uint64_t target = static_cast<uint64_t>(
      static_cast<unsigned __int128>(total_window) * desired_ops / total_rate);
  uint64_t cumulative = 0;
  for (size_t b = 0; b < kHotspotBins - 1; b++) {
    cumulative += tablet.bin_ops[b];
    if (cumulative < target || cumulative == 0) {
      continue;
    }
    const KeyHash boundary = static_cast<KeyHash>(b + 1) << kHotspotBinShift;
    if (boundary > tablet.start_hash && boundary <= tablet.end_hash) {
      return boundary;
    }
  }
  return 0;
}

std::optional<TabletLoadSample> RebalancePlanner::PickTablet(
    const LoadTelemetryFrame& source_frame, uint64_t desired_ops, bool* acted) {
  *acted = false;
  const uint64_t cap =
      static_cast<uint64_t>(static_cast<double>(desired_ops) * kSplitOvershootFraction);
  const TabletLoadSample* best = nullptr;      // Best fit within the overshoot cap.
  const TabletLoadSample* smallest = nullptr;  // Least-loaded active tablet.
  for (const auto& tablet : source_frame.tablets) {
    if (tablet.ops_per_sec() == 0) {
      continue;
    }
    if (smallest == nullptr || tablet.ops_per_sec() < smallest->ops_per_sec()) {
      smallest = &tablet;
    }
    if (tablet.ops_per_sec() <= cap &&
        (best == nullptr || AbsDiff(tablet.ops_per_sec(), desired_ops) <
                                AbsDiff(best->ops_per_sec(), desired_ops))) {
      best = &tablet;
    }
  }
  if (best != nullptr) {
    return *best;
  }
  if (smallest == nullptr) {
    return std::nullopt;
  }
  // Every active tablet overshoots the desired move: carve the least
  // overshooting one at the histogram boundary closest to the desired rate,
  // then let the next rounds act on the halves.
  const KeyHash boundary = ChooseSplitBoundary(*smallest, desired_ops);
  if (boundary == 0) {
    return std::nullopt;
  }
  const Status status =
      cluster_->coordinator().SplitTabletChecked(smallest->table, boundary);
  if (status == Status::kOk) {
    stats_.splits_requested++;
    *acted = true;
    LOG_INFO("planner: split table %llu at %llx for rebalance",
             static_cast<unsigned long long>(smallest->table),
             static_cast<unsigned long long>(boundary));
  } else if (status == Status::kRetryLater) {
    // Cluster mid-transition (recovery, in-flight migration): abort the
    // round entirely and re-evaluate on fresh telemetry.
    stats_.split_retries++;
    *acted = true;
  }
  return std::nullopt;
}

bool RebalancePlanner::TargetEligible(const LoadTelemetryFrame& frame,
                                      const TabletLoadSample& tablet) const {
  if (frame.recent_p999_ns > kTargetP999CeilingNs ||
      frame.client_queue_depth > kTargetQueueCeiling ||
      frame.dispatch_backlog_ns > kTargetBacklogCeilingNs) {
    return false;  // Overloaded right now; never migrate into it.
  }
  if (frame.memory_budget_bytes > 0) {
    const double limit = kTargetMemoryFraction * static_cast<double>(frame.memory_budget_bytes);
    if (static_cast<double>(frame.memory_in_use) + static_cast<double>(tablet.resident_bytes) >
        limit) {
      return false;  // The move would land past the budget headroom.
    }
  }
  return true;
}

void RebalancePlanner::LaunchMigration(const TabletLoadSample& tablet, ServerId source,
                                       ServerId target) {
  Coordinator& coordinator = cluster_->coordinator();
  // The frame may be up to a staleness window old; re-validate against the
  // authoritative map before acting on it: the exact range must still exist
  // and still belong to the claimed source.
  bool exact_range = false;
  for (const auto& entry : coordinator.GetAllTablets()) {
    if (entry.table == tablet.table && entry.start_hash == tablet.start_hash &&
        entry.end_hash == tablet.end_hash) {
      exact_range = entry.owner == source;
      break;
    }
  }
  if (!exact_range) {
    stats_.skipped_no_candidate++;
    return;
  }
  LOG_INFO("planner: migrate table %llu [%llx, %llx] %u -> %u (%llu ops/s, %.1f MB)",
           static_cast<unsigned long long>(tablet.table),
           static_cast<unsigned long long>(tablet.start_hash),
           static_cast<unsigned long long>(tablet.end_hash), source, target,
           static_cast<unsigned long long>(tablet.ops_per_sec()),
           static_cast<double>(tablet.resident_bytes) / 1e6);
  stats_.migrations_started++;
  state_ = State::kMigrating;
  imbalanced_rounds_ = 0;
  hot_flight_ = Flight{source,           target,          tablet.table,
                       tablet.start_hash, tablet.end_hash,
                       coordinator.sim().now() + options_.migration_deadline_ns};
  SendMigrateTablet(*hot_flight_);
}

bool RebalancePlanner::DrainTargetFree(ServerId target) const {
  const Coordinator& coordinator = cluster_->coordinator();
  if (!coordinator.up(target) || coordinator.lifecycle(target) != ServerLifecycle::kActive) {
    return false;
  }
  // One inbound migration manager per target at a time: skip anyone already
  // named as a target by a lineage dependency (an in-flight migration,
  // whoever started it) or by one of our own outstanding flights (which
  // covers the pre-registration window).
  for (const auto& d : coordinator.dependencies()) {
    if (d.target == target) {
      return false;
    }
  }
  for (const auto& flight : drain_flights_) {
    if (flight.target == target) {
      return false;
    }
  }
  return true;
}

bool RebalancePlanner::PlanDrain(Tick now) {
  Coordinator& coordinator = cluster_->coordinator();
  // Flights whose done callback never fired by the deadline are abandoned to
  // the lease watchdog (same division of labor as the hot-spot path).
  std::erase_if(drain_flights_, [&](const Flight& flight) {
    if (now < flight.deadline) {
      return false;
    }
    stats_.drain_migrations_timed_out++;
    return true;
  });
  bool any_draining = false;
  std::vector<ServerId> draining;  // Alive draining masters, ascending id.
  for (size_t i = 0; i < cluster_->num_masters(); i++) {
    const auto id = static_cast<ServerId>(i + 1);
    if (coordinator.lifecycle(id) == ServerLifecycle::kDraining) {
      any_draining = true;
      if (coordinator.up(id)) {
        draining.push_back(id);  // Crashed ones are recovery's problem.
      }
    }
  }
  if (!any_draining && drain_flights_.empty()) {
    return false;
  }
  stats_.drain_rounds++;
  if (state_ == State::kMigrating) {
    // A hot-spot migration is outstanding and its target is not in the
    // drain books; wait it out so two inbound migrations never share a
    // target. No new hot-spot moves start while drain mode owns the loop.
    if (now >= hot_flight_->deadline) {
      stats_.migrations_timed_out++;
      state_ = State::kCooldown;
      cooldown_until_ = now + kCooldownNs;
    }
    return true;
  }

  int capacity = kDrainConcurrency - static_cast<int>(drain_flights_.size());
  if (capacity <= 0 || draining.empty()) {
    return true;
  }

  // Rank eligible targets: telemetry-fresh ones by reported load (skipping
  // any past the overload ceilings), then telemetry-silent ones by how many
  // map ranges they already own — the drain must make progress even before
  // a just-activated standby has ever reported a frame. Ties break by id.
  struct TargetRank {
    ServerId id = 0;
    bool has_frame = false;
    uint64_t key = 0;
  };
  std::vector<TargetRank> ranked;
  for (size_t i = 0; i < cluster_->num_masters(); i++) {
    const auto id = static_cast<ServerId>(i + 1);
    if (!DrainTargetFree(id)) {
      continue;
    }
    const auto& frame = frames_[id - 1];
    if (frame.has_value() && now - frame->sampled_at <= kTelemetryStalenessNs) {
      if (!TargetEligible(*frame, TabletLoadSample{})) {
        continue;  // Overloaded right now; let it breathe this round.
      }
      ranked.push_back({id, true, frame->TotalOpsPerSec()});
    } else {
      uint64_t owned = 0;
      for (const auto& entry : coordinator.GetAllTablets()) {
        owned += entry.owner == id ? 1 : 0;
      }
      ranked.push_back({id, false, owned});
    }
  }
  std::sort(ranked.begin(), ranked.end(), [](const TargetRank& a, const TargetRank& b) {
    if (a.has_frame != b.has_frame) {
      return a.has_frame;  // Fresh telemetry outranks guessing.
    }
    return a.key != b.key ? a.key < b.key : a.id < b.id;
  });

  size_t next_target = 0;
  bool starved = false;
  for (const ServerId source : draining) {
    // The evacuation list: every map range still owned by the draining
    // master and not already on the move (dependency or flight overlap),
    // in deterministic (table, start) order.
    std::vector<Coordinator::OwnedTablet> pending;
    for (const auto& entry : coordinator.GetAllTablets()) {
      if (entry.owner != source) {
        continue;
      }
      bool moving = false;
      for (const auto& d : coordinator.dependencies()) {
        if (d.table == entry.table && d.start_hash <= entry.end_hash &&
            entry.start_hash <= d.end_hash) {
          moving = true;
          break;
        }
      }
      for (size_t f = 0; !moving && f < drain_flights_.size(); f++) {
        moving = drain_flights_[f].table == entry.table &&
                 drain_flights_[f].start_hash <= entry.end_hash &&
                 entry.start_hash <= drain_flights_[f].end_hash;
      }
      if (!moving) {
        pending.push_back(entry);
      }
    }
    std::sort(pending.begin(), pending.end(),
              [](const Coordinator::OwnedTablet& a, const Coordinator::OwnedTablet& b) {
                return a.table != b.table ? a.table < b.table : a.start_hash < b.start_hash;
              });
    for (const auto& entry : pending) {
      if (capacity <= 0 || next_target >= ranked.size()) {
        starved = !pending.empty();
        break;
      }
      const ServerId target = ranked[next_target++].id;
      stats_.drain_migrations_started++;
      capacity--;
      const Flight flight{source,           target,         entry.table,
                          entry.start_hash, entry.end_hash,
                          now + kDrainFlightDeadlineNs};
      drain_flights_.push_back(flight);
      LOG_INFO("planner: drain-evacuate table %llu [%llx, %llx] %u -> %u",
               static_cast<unsigned long long>(entry.table),
               static_cast<unsigned long long>(entry.start_hash),
               static_cast<unsigned long long>(entry.end_hash), source, target);
      SendMigrateTablet(flight);
    }
  }
  if (starved && next_target >= ranked.size()) {
    stats_.drain_skipped_no_target++;
  }
  return true;
}

void RebalancePlanner::PlanOnce() {
  stats_.rounds++;
  const Tick now = cluster_->coordinator().sim().now();
  Coordinator& coordinator = cluster_->coordinator();
  if (coordinator.crashed()) {
    return;  // No map to plan against; frames keep accumulating.
  }

  // Drain evacuation outranks hot-spot chasing: while any master is
  // draining (or drain flights are still landing) the hot-spot machinery
  // stands down entirely.
  if (PlanDrain(now)) {
    return;
  }

  if (state_ == State::kMigrating) {
    if (now >= hot_flight_->deadline) {
      // The migration never committed: it wedged or aborted.
      // Stand down; the coordinator's lease watchdog owns the repair.
      stats_.migrations_timed_out++;
      state_ = State::kCooldown;
      cooldown_until_ = now + kCooldownNs;
    }
    return;
  }
  if (state_ == State::kCooldown) {
    if (now < cooldown_until_) {
      return;
    }
    state_ = State::kIdle;
    imbalanced_rounds_ = 0;
  }

  std::vector<uint64_t> loads;
  std::vector<bool> fresh;
  if (!CollectLoads(&loads, &fresh, now)) {
    stats_.skipped_stale++;
    imbalanced_rounds_ = 0;
    state_ = State::kIdle;
    return;
  }

  uint64_t total = 0;
  size_t fresh_count = 0;
  size_t hottest = cluster_->num_masters();
  for (size_t i = 0; i < loads.size(); i++) {
    if (!fresh[i]) {
      continue;
    }
    total += loads[i];
    fresh_count++;
    if (hottest >= loads.size() || loads[i] > loads[hottest]) {
      hottest = i;
    }
  }
  const double mean = static_cast<double>(total) / static_cast<double>(fresh_count);
  const uint64_t max_load = loads[hottest];
  const bool imbalanced = max_load >= options_.min_imbalance_ops_per_sec &&
                          static_cast<double>(max_load) > kImbalanceRatio * mean;
  if (!imbalanced) {
    stats_.skipped_balanced++;
    imbalanced_rounds_ = 0;
    state_ = State::kIdle;
    return;
  }

  imbalanced_rounds_++;
  state_ = State::kArming;
  if (imbalanced_rounds_ < options_.hysteresis_rounds) {
    return;  // Arming: the imbalance must persist before the planner acts.
  }

  const auto source = static_cast<ServerId>(hottest + 1);
  // Targets in ascending load order (ties by index: deterministic).
  std::vector<size_t> targets;
  for (size_t i = 0; i < loads.size(); i++) {
    if (fresh[i] && i != hottest) {
      targets.push_back(i);
    }
  }
  std::sort(targets.begin(), targets.end(), [&](size_t a, size_t b) {
    return loads[a] != loads[b] ? loads[a] < loads[b] : a < b;
  });

  // Move enough to bring the source down toward the mean without pushing
  // the best target past it.
  const uint64_t mean_ops = static_cast<uint64_t>(mean);
  const uint64_t source_excess = max_load - mean_ops;
  const uint64_t target_headroom =
      mean_ops > loads[targets.front()] ? mean_ops - loads[targets.front()] : 0;
  const uint64_t desired_ops = std::min(source_excess, target_headroom);
  if (desired_ops < options_.min_imbalance_ops_per_sec / 2) {
    // Everything else is already at the mean; moving a sliver churns for
    // nothing.
    stats_.skipped_balanced++;
    return;
  }

  bool acted = false;
  const auto tablet = PickTablet(*frames_[source - 1], desired_ops, &acted);
  if (!tablet.has_value()) {
    if (!acted) {
      stats_.skipped_no_candidate++;
    }
    return;
  }

  for (size_t t : targets) {
    const auto target = static_cast<ServerId>(t + 1);
    if (TargetEligible(*frames_[target - 1], *tablet)) {
      LaunchMigration(*tablet, source, target);
      return;
    }
  }
  stats_.skipped_no_target++;
}

}  // namespace rocksteady
