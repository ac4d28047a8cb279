#include "bench/scenario_harness.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "bench/client_history.h"
#include "bench/experiment_common.h"
#include "src/cluster/operations.h"
#include "src/common/audit.h"
#include "src/common/random.h"
#include "src/rebalance/planner.h"
#include "src/rebalance/telemetry.h"
#include "src/sim/fault_injector.h"

namespace rocksteady {
namespace {

constexpr Tick kRecoveryRestartDelay = kMillisecond;
constexpr Tick kCrashPollGap = 5 * kMicrosecond;
constexpr int kCrashPolls = 1'000;
constexpr Tick kRestartSettle = 3 * kMillisecond;

// Whether the spec's events crash a master.
bool CrashesMaster(const ScenarioEvent& event) {
  return event.kind == ScenarioEvent::Kind::kCrashMaster ||
         event.kind == ScenarioEvent::Kind::kCrashInMigration;
}

// Runs `crash` at the first safe point (polled every kCrashPollGap from
// `at`, `polls_left` times) at which a lineage dependency names `victim`.
void CrashInMigration(Cluster& cluster, Tick at, ServerId victim,
                      const std::function<void()>& crash, int polls_left) {
  cluster.AtSafePoint(at, [&cluster, at, victim, crash, polls_left] {
    const Coordinator& coordinator = cluster.coordinator();
    if (coordinator.FindDependencyBySource(victim).has_value() ||
        coordinator.FindDependencyByTarget(victim).has_value()) {
      crash();
    } else if (polls_left > 1) {
      CrashInMigration(cluster, at + kCrashPollGap, victim, crash, polls_left - 1);
    }
  });
}

}  // namespace

ClusterConfig EpisodeCluster() {
  ClusterConfig config;
  config.num_masters = 4;
  config.num_clients = 2;
  config.master.hash_table_log2_buckets = 14;
  config.master.segment_size = 64 * 1024;
  return config;
}

ScenarioResult RunScenario(const ScenarioSpec& spec, uint64_t seed, int lanes, bool threads) {
  // The injector must outlive the cluster's network.
  std::optional<FaultInjector> injector;
  if (spec.fabric.has_value()) {
    injector.emplace(FaultInjector::Config{
        .seed = seed * 1'000 + 7,
        .drop_probability = spec.fabric->drop_probability,
        .duplicate_probability = 0.005,
        .max_extra_delay_ns = 2 * kMicrosecond});
  }
  ClusterConfig config = spec.cluster;
  config.seed = seed;
  config.lanes = lanes;
  config.lane_threads = threads;
  Cluster cluster(config);
  if (injector.has_value()) {
    cluster.net().SetFaultInjector(&*injector);
  }
  EnableMigration(&cluster);

  // Standbys join the server list but own nothing until activated.
  const size_t active = cluster.num_masters() - spec.standbys;
  for (size_t i = active; i < cluster.num_masters(); i++) {
    cluster.coordinator().MarkStandby(cluster.master(i).id());
  }
  cluster.CreateTable(kScenarioTable, 0);
  if (spec.spread) {
    SpreadTableAcross(cluster, kScenarioTable, static_cast<int>(active));
  }
  cluster.LoadTable(kScenarioTable, spec.records, 30, 100);

  ScenarioResult result;
  ScenarioResult::Digest& digest = result.digest;
  const bool crashes = std::ranges::any_of(spec.events, CrashesMaster);
  const bool rolling_restart =
      std::ranges::any_of(spec.events, [](const ScenarioEvent& event) {
        return event.kind == ScenarioEvent::Kind::kRollingRestart;
      });
  const bool detector = spec.planner || crashes || rolling_restart;

  std::optional<ClusterTelemetry> telemetry;
  std::optional<RebalancePlanner> planner;
  if (spec.planner) {
    telemetry.emplace(&cluster);
    RebalancerOptions options;
    options.min_imbalance_ops_per_sec = 1'000;
    options.migration_deadline_ns = 30 * kMillisecond;
    planner.emplace(&cluster, options);
    planner->Start();
  }
  if (detector) {
    cluster.coordinator().StartFailureDetector();
  }
  if (crashes) {
    // Rejoin only after recovery finishes: restarting earlier would race the
    // re-homing of the dead server's tablets. The hook runs on the
    // coordinator's node; a restart is an operator action on another node,
    // so it runs as a safe-point task.
    cluster.coordinator().on_recovery_complete = [&](ServerId id) {
      digest.recoveries_completed++;
      Simulator& sim = cluster.coordinator().sim();
      sim.AtSafePoint(sim.now() + kRecoveryRestartDelay, [&, id] {
        cluster.coordinator().master(id)->Restart();
        digest.recovery_restarts++;
      });
    };
  }
  RollingRestartOptions restart_options;
  restart_options.settle_ns = kRestartSettle;
  RollingRestartOrchestrator orchestrator(&cluster, restart_options);

  bool rolling_restart_done = false;
  // One slot per event, so migrations finishing on different lanes never
  // share a write.
  std::vector<std::optional<MigrationStats>> migrated(spec.events.size());
  for (size_t e = 0; e < spec.events.size(); e++) {
    const ScenarioEvent& event = spec.events[e];
    std::function<void()> action;
    switch (event.kind) {
      case ScenarioEvent::Kind::kBeginDrain:
        action = [&cluster, index = event.master_index] {
          cluster.coordinator().BeginDrain(cluster.master(index).id());
        };
        break;
      case ScenarioEvent::Kind::kActivateServer:
        action = [&cluster, index = event.master_index] {
          cluster.coordinator().ActivateServer(cluster.master(index).id());
        };
        break;
      case ScenarioEvent::Kind::kRollingRestart:
        action = [&orchestrator, &rolling_restart_done] {
          orchestrator.Start([&rolling_restart_done] { rolling_restart_done = true; });
        };
        break;
      case ScenarioEvent::Kind::kMigrate:
        action = [&cluster, &event, stats = &migrated[e]] {
          StartRocksteadyMigration(&cluster, kScenarioTable, event.start_hash, event.end_hash,
                                   event.master_index, event.target_index, event.options,
                                   [stats](const MigrationStats& s) { *stats = s; });
        };
        break;
      case ScenarioEvent::Kind::kCrashMaster:
        action = [&cluster, index = event.master_index] { cluster.master(index).Crash(); };
        break;
      case ScenarioEvent::Kind::kCrashInMigration:
        CrashInMigration(cluster, event.at, cluster.master(event.master_index).id(),
                         [&cluster, &digest, index = event.master_index] {
                           digest.lineage_crashes++;
                           cluster.master(index).Crash();
                         },
                         kCrashPolls);
        continue;
      case ScenarioEvent::Kind::kCrashCoordinator:
        action = [&cluster] { cluster.coordinator().Crash(); };
        break;
      case ScenarioEvent::Kind::kRestartCoordinator:
        action = [&cluster] { cluster.coordinator().Restart(); };
        break;
      case ScenarioEvent::Kind::kSlowCores:
        action = [&cluster, index = event.master_index, slowdown = event.slowdown] {
          cluster.master(index).cores().SetSlowdown(slowdown);
        };
        break;
    }
    cluster.AtSafePoint(event.at, std::move(action));
  }

  const ClientHistories histories = StartClientHistories(
      cluster, kScenarioTable, spec.ops_stop,
      spec.choose ? spec.choose : YcsbBChoice(spec.records), spec.gap,
      ClientHistory::kUnbounded);

  // The detector sweep and the planner reschedule themselves forever: run
  // to the horizon, stop them, then drain.
  if (detector) {
    cluster.RunUntil(spec.horizon);
    if (planner.has_value()) {
      planner->Stop();
    }
    cluster.coordinator().StopFailureDetector();
  }
  cluster.Run();
  result.windows = cluster.lanes()->windows_run();

  // Operations convergence: every uncancelled drain reached decommissioned
  // (a later ActivateServer cancels the drain), and a requested rolling
  // restart ran to completion.
  result.operations_converged = !rolling_restart || rolling_restart_done;
  for (const ScenarioEvent& event : spec.events) {
    if (event.kind != ScenarioEvent::Kind::kBeginDrain) {
      continue;
    }
    const bool cancelled = std::ranges::any_of(spec.events, [&](const ScenarioEvent& later) {
      return later.kind == ScenarioEvent::Kind::kActivateServer &&
             later.master_index == event.master_index && later.at > event.at;
    });
    result.operations_converged &=
        cancelled || cluster.coordinator().lifecycle(cluster.master(event.master_index).id()) ==
                         ServerLifecycle::kDecommissioned;
  }

  // Invariant audits: ownership tiles the hash space, dependencies are
  // consistent, every live store is internally coherent.
  AuditReport report;
  cluster.AuditInvariants(&report);
  result.audits_ok = report.ok();
  result.audit_summary = report.Summary();

  // No committed write lost: every key reads back as its last acked value,
  // the loaded default if never written, or — only for keys with a
  // client-abandoned write — one of those indeterminate values.
  ReadBackResult lost =
      VerifyReadBack(cluster, kScenarioTable, LoadedKeys(spec.records), histories);
  digest.lost_writes = lost.mismatches;
  result.mismatch_detail = std::move(lost.detail);

  // A read's latency is attributed to the phase it was *issued* in.
  digest.ops = CountOps(histories);
  for (const ScenarioPhase& phase : spec.phases) {
    std::vector<Tick> latencies;
    ForEachOp(histories, [&](const OpRecord& op) {
      if (op.is_read && op.ok() && op.issued >= phase.start && op.issued < phase.end) {
        latencies.push_back(op.completed - op.issued);
      }
    });
    digest.phases.push_back(PhaseLatency{.name = phase.name,
                                         .ops = latencies.size(),
                                         .p50_ns = Quantile(latencies, 0.50),
                                         .p999_ns = Quantile(latencies, 0.999)});
  }

  for (const std::optional<MigrationStats>& stats : migrated) {
    if (stats.has_value()) {
      digest.migrations_finished++;
      digest.records_pulled += stats->records_pulled;
      digest.priority_pull_records += stats->priority_pull_records;
      digest.pacing_backoffs += stats->pacing_backoffs;
      digest.pull_rejections += stats->pull_rejections;
    }
  }
  digest.trace_hash = cluster.trace_hash();
  digest.events_processed = cluster.events_processed();
  digest.end_time = cluster.now();
  digest.injected_drops = cluster.net().injected_drops();
  digest.injected_duplicates = cluster.net().injected_duplicates();
  digest.injected_delays = cluster.net().injected_delays();
  digest.dropped_to_down_node = cluster.net().dropped_to_down_node();
  digest.retransmissions = cluster.rpc().retransmissions();
  const Coordinator& coordinator = cluster.coordinator();
  digest.crashes_detected = coordinator.crashes_detected();
  digest.splits_performed = coordinator.splits_performed();
  digest.drains_completed = coordinator.drains_completed();
  digest.restarts_completed = orchestrator.stats().restarts_completed;
  if (planner.has_value()) {
    digest.planner_migrations_started = planner->stats().migrations_started;
    digest.planner_migrations_completed = planner->stats().migrations_completed;
    digest.planner_drain_migrations_completed = planner->stats().drain_migrations_completed;
  }
  for (size_t i = 0; i < cluster.num_masters(); i++) {
    MasterServer& master = cluster.master(i);
    digest.masters_up += master.crashed() ? 0 : 1;
    digest.client_sheds += master.client_sheds();
    digest.master_objects.push_back(master.objects().object_count());
  }
  return result;
}

std::ostream& operator<<(std::ostream& os, const ScenarioResult::Digest& d) {
  os << "{trace_hash=" << d.trace_hash << " events=" << d.events_processed
     << " end_time=" << d.end_time << " ops(acked_writes=" << d.ops.acked_writes
     << " failed_writes=" << d.ops.failed_writes << " reads_ok=" << d.ops.reads_ok
     << " reads_failed=" << d.ops.reads_failed << ") lost_writes=" << d.lost_writes
     << " drops=" << d.injected_drops << " dups=" << d.injected_duplicates
     << " delays=" << d.injected_delays << " to_down_node=" << d.dropped_to_down_node
     << " retransmissions=" << d.retransmissions << " migrations_finished="
     << d.migrations_finished << " records_pulled=" << d.records_pulled
     << " pp_records=" << d.priority_pull_records << " pacing_backoffs=" << d.pacing_backoffs
     << " pull_rejections=" << d.pull_rejections << " crashes_detected=" << d.crashes_detected
     << " lineage_crashes=" << d.lineage_crashes
     << " recoveries_completed=" << d.recoveries_completed
     << " recovery_restarts=" << d.recovery_restarts << " masters_up=" << d.masters_up
     << " splits=" << d.splits_performed << " drains=" << d.drains_completed
     << " restarts=" << d.restarts_completed << " planner_migrations(started="
     << d.planner_migrations_started << " completed=" << d.planner_migrations_completed
     << " drain=" << d.planner_drain_migrations_completed << ") client_sheds=" << d.client_sheds
     << " master_objects=[";
  for (size_t i = 0; i < d.master_objects.size(); i++) {
    os << (i == 0 ? "" : " ") << d.master_objects[i];
  }
  os << "] phases=[";
  for (size_t i = 0; i < d.phases.size(); i++) {
    const PhaseLatency& phase = d.phases[i];
    os << (i == 0 ? "" : " ") << phase.name << "(ops=" << phase.ops << " p50=" << phase.p50_ns
       << " p999=" << phase.p999_ns << ")";
  }
  return os << "]}";
}

namespace {

// The matrix's load: ~100k ops/s offered, 10% writes, keys uniform over the
// loaded records.
constexpr uint64_t kMatrixRecords = 1'500;
constexpr Tick kMatrixGap = 10 * kMicrosecond;
constexpr double kMatrixWriteFraction = 0.10;
constexpr Tick kMatrixOpsStop = 50 * kMillisecond;
// Flash crowd: inside the window the rate triples and 80% of ops aim at a
// few hot keys.
constexpr Tick kFlashStart = 15 * kMillisecond;
constexpr Tick kFlashEnd = 35 * kMillisecond;
constexpr Tick kFlashRateMultiplier = 3;
constexpr uint64_t kFlashHotKeys = 8;
constexpr double kFlashHotFraction = 0.8;
// Diurnal trough rate as a fraction of the peak.
constexpr double kDiurnalTroughFraction = 0.35;

bool InFlashWindow(Tick now) { return now >= kFlashStart && now < kFlashEnd; }

// Uniform keys; with `flash`, the flash window's hot keys.
ClientHistory::ChooseOp MatrixChoice(bool flash) {
  return [flash](Random& rng, Tick now) {
    const bool hot = flash && InFlashWindow(now) && rng.NextDouble() < kFlashHotFraction;
    std::string key = Cluster::MakeKey(rng.Uniform(hot ? kFlashHotKeys : kMatrixRecords), 30);
    return YcsbWorkload::Op{.is_read = rng.NextDouble() >= kMatrixWriteFraction,
                            .key = std::move(key)};
  };
}

// A spec with the matrix's cluster, fabric, planner and uniform load.
ScenarioSpec MatrixSpec(std::string name) {
  ScenarioSpec s;
  s.name = std::move(name);
  s.fabric = LossyFabric{};
  s.records = kMatrixRecords;
  s.choose = MatrixChoice(/*flash=*/false);
  s.gap = [](Random&, Tick) { return kMatrixGap; };
  s.ops_stop = kMatrixOpsStop;
  s.planner = true;
  s.horizon = 90 * kMillisecond;
  return s;
}

}  // namespace

const std::vector<ScenarioSpec>& ScenarioMatrix() {
  static const std::vector<ScenarioSpec> matrix = [] {
    using Kind = ScenarioEvent::Kind;
    std::vector<ScenarioSpec> scenarios;

    {
      // Scale-out: three loaded masters plus a standby; the standby is
      // activated mid-run and the planner migrates load onto it.
      ScenarioSpec s = MatrixSpec("scale_out");
      s.standbys = 1;
      s.events = {{.kind = Kind::kActivateServer, .at = 15 * kMillisecond, .master_index = 3}};
      s.phases = {{"before", 0, 15 * kMillisecond},
                  {"rebalancing", 15 * kMillisecond, 35 * kMillisecond},
                  {"after", 35 * kMillisecond, 50 * kMillisecond}};
      scenarios.push_back(std::move(s));
    }

    {
      // Scale-in: drain a loaded master under load; the planner evacuates
      // its quarter with bounded concurrency until it decommissions.
      ScenarioSpec s = MatrixSpec("scale_in_drain");
      s.events = {{.kind = Kind::kBeginDrain, .at = 12 * kMillisecond, .master_index = 3}};
      s.phases = {{"before", 0, 12 * kMillisecond},
                  {"draining", 12 * kMillisecond, 32 * kMillisecond},
                  {"after", 32 * kMillisecond, 50 * kMillisecond}};
      scenarios.push_back(std::move(s));
    }

    {
      // Rolling restart: every master cycled once, one at a time, while
      // the workload keeps running. Longer horizon: each cycle pays crash
      // detection (up to ping interval + timeout) plus recovery + settle.
      ScenarioSpec s = MatrixSpec("rolling_restart");
      s.ops_stop = 80 * kMillisecond;
      s.horizon = 160 * kMillisecond;
      s.events = {{.kind = Kind::kRollingRestart, .at = 10 * kMillisecond}};
      s.phases = {{"before", 0, 10 * kMillisecond},
                  {"restarting", 10 * kMillisecond, 80 * kMillisecond}};
      scenarios.push_back(std::move(s));
    }

    {
      // Flash crowd: a burst window triples the offered rate and aims 80%
      // of ops at a handful of hot keys; the planner may split + migrate.
      ScenarioSpec s = MatrixSpec("flash_crowd");
      s.choose = MatrixChoice(/*flash=*/true);
      s.gap = [](Random&, Tick now) {
        return InFlashWindow(now) ? kMatrixGap / kFlashRateMultiplier : kMatrixGap;
      };
      s.phases = {{"before", 0, kFlashStart},
                  {"flash", kFlashStart, kFlashEnd},
                  {"after", kFlashEnd, 50 * kMillisecond}};
      scenarios.push_back(std::move(s));
    }

    {
      // Diurnal: offered load follows a trough-peak-trough triangle wave
      // across the run (the planner should not thrash on the swing).
      ScenarioSpec s = MatrixSpec("diurnal");
      s.gap = [](Random&, Tick now) {
        const double pos = static_cast<double>(now) / static_cast<double>(kMatrixOpsStop);
        const double tri = pos < 0.5 ? pos * 2.0 : std::max(0.0, 2.0 - pos * 2.0);
        const double offered = kDiurnalTroughFraction + (1.0 - kDiurnalTroughFraction) * tri;
        return static_cast<Tick>(static_cast<double>(kMatrixGap) / offered);
      };
      s.phases = {{"trough_rise", 0, 17 * kMillisecond},
                  {"peak", 17 * kMillisecond, 33 * kMillisecond},
                  {"fall_trough", 33 * kMillisecond, 50 * kMillisecond}};
      scenarios.push_back(std::move(s));
    }

    return scenarios;
  }();
  return matrix;
}

}  // namespace rocksteady
