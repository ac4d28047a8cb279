#include "bench/scenario_harness.h"

#include <algorithm>
#include <string>
#include <vector>

#include "bench/client_history.h"
#include "bench/experiment_common.h"
#include "src/cluster/operations.h"
#include "src/common/audit.h"
#include "src/common/random.h"
#include "src/migration/rocksteady_target.h"
#include "src/rebalance/planner.h"
#include "src/rebalance/telemetry.h"
#include "src/sim/fault_injector.h"

namespace rocksteady {
namespace {

constexpr TableId kTable = 1;
constexpr size_t kFlashHotKeys = 8;
constexpr double kFlashHotFraction = 0.8;
// Diurnal trough rate as a fraction of the peak.
constexpr double kDiurnalTroughFraction = 0.35;

// Fraction of the base rate offered at time `now` for the spec's shape.
double OfferedFraction(const ScenarioSpec& spec, Tick now) {
  if (spec.shape != LoadShape::kDiurnal || spec.ops_stop == 0) {
    return 1.0;
  }
  const double pos = static_cast<double>(now) / static_cast<double>(spec.ops_stop);
  const double tri = pos < 0.5 ? pos * 2.0 : std::max(0.0, 2.0 - pos * 2.0);
  return kDiurnalTroughFraction + (1.0 - kDiurnalTroughFraction) * tri;
}

bool InFlashWindow(const ScenarioSpec& spec, Tick now) {
  return spec.shape == LoadShape::kFlashCrowd && now >= spec.flash_start &&
         now < spec.flash_end;
}

}  // namespace

ScenarioResult RunScenario(const ScenarioSpec& spec, uint64_t seed, int lanes) {
  // Same lossy-fabric profile as the chaos suites.
  FaultInjector injector({.seed = seed * 1'000 + 7,
                          .drop_probability = 0.01,
                          .duplicate_probability = 0.005,
                          .max_extra_delay_ns = 2 * kMicrosecond});
  ClusterConfig config;
  config.num_masters = spec.masters;
  config.num_clients = spec.clients;
  config.seed = seed;
  config.master.hash_table_log2_buckets = 14;
  config.master.segment_size = 64 * 1024;
  config.lanes = lanes;
  config.lane_threads = lanes > 1;
  Cluster cluster(config);
  cluster.net().SetFaultInjector(&injector);
  EnableMigration(&cluster);

  // Standbys join the server list but own nothing until activated.
  const size_t active = spec.masters - spec.standbys;
  for (size_t i = active; i < spec.masters; i++) {
    cluster.coordinator().MarkStandby(cluster.master(i).id());
  }

  // Spread the table evenly across the active masters, then load.
  cluster.CreateTable(kTable, 0);
  SpreadTableAcross(cluster, kTable, static_cast<int>(active));
  cluster.LoadTable(kTable, spec.records, 30, 100);
  const std::vector<std::string> keys = LoadedKeys(spec.records);

  // The full operations stack: telemetry -> planner (hot-spot + drain
  // modes), failure detector, and — when an event asks for it — the
  // rolling-restart orchestrator.
  ClusterTelemetry telemetry(&cluster);
  RebalancerOptions planner_options;
  planner_options.min_imbalance_ops_per_sec = 1'000;
  planner_options.migration_deadline_ns = 30 * kMillisecond;
  RebalancePlanner planner(&cluster, planner_options);
  planner.Start();
  cluster.coordinator().StartFailureDetector();
  RollingRestartOptions restart_options;
  restart_options.settle_ns = 3 * kMillisecond;
  RollingRestartOrchestrator orchestrator(&cluster, restart_options);

  bool rolling_restart_used = false;
  bool rolling_restart_done = false;
  std::vector<ServerId> drained;  // Servers whose final intent is "drained".
  for (const auto& event : spec.events) {
    switch (event.kind) {
      case ScenarioEvent::Kind::kBeginDrain:
        cluster.AtSafePoint(event.at, [&cluster, index = event.master_index] {
          cluster.coordinator().BeginDrain(cluster.master(index).id());
        });
        break;
      case ScenarioEvent::Kind::kActivateServer:
        cluster.AtSafePoint(event.at, [&cluster, index = event.master_index] {
          cluster.coordinator().ActivateServer(cluster.master(index).id());
        });
        break;
      case ScenarioEvent::Kind::kRollingRestart:
        rolling_restart_used = true;
        cluster.AtSafePoint(event.at, [&orchestrator, &rolling_restart_done] {
          orchestrator.Start([&rolling_restart_done] { rolling_restart_done = true; });
        });
        break;
    }
  }
  // A later ActivateServer cancels the drain intent for that server.
  for (const auto& event : spec.events) {
    if (event.kind != ScenarioEvent::Kind::kBeginDrain) {
      continue;
    }
    bool cancelled = false;
    for (const auto& later : spec.events) {
      cancelled |= later.kind == ScenarioEvent::Kind::kActivateServer &&
                   later.master_index == event.master_index && later.at > event.at;
    }
    if (!cancelled) {
      drained.push_back(cluster.master(event.master_index).id());
    }
  }

  // Open-loop load from every client. The flash window multiplies the rate
  // and aims most ops at a few hot keys; the diurnal curve stretches the gap.
  const ClientHistories histories = StartClientHistories(
      cluster, kTable, spec.ops_stop,
      [&] {
        return [&](Random& rng, Tick now) {
          const bool hot = InFlashWindow(spec, now) && rng.NextDouble() < kFlashHotFraction;
          std::string key = keys[rng.Uniform(hot ? kFlashHotKeys : keys.size())];
          return YcsbWorkload::Op{.is_read = rng.NextDouble() >= spec.write_fraction,
                                  .key = std::move(key)};
        };
      },
      [&](Random&, Tick now) {
        Tick gap = spec.op_gap;
        if (InFlashWindow(spec, now) && spec.flash_rate_multiplier > 1) {
          gap /= static_cast<Tick>(spec.flash_rate_multiplier);
        }
        return static_cast<Tick>(static_cast<double>(gap) / OfferedFraction(spec, now));
      },
      ClientHistory::kUnbounded);

  cluster.RunUntil(spec.horizon);
  planner.Stop();
  cluster.coordinator().StopFailureDetector();
  cluster.Run();

  ScenarioResult result;
  // Operations convergence: every uncancelled drain reached decommissioned,
  // and a requested rolling restart ran to completion.
  result.operations_converged = !rolling_restart_used || rolling_restart_done;
  for (const ServerId id : drained) {
    result.operations_converged &=
        cluster.coordinator().lifecycle(id) == ServerLifecycle::kDecommissioned;
  }

  // Invariant audits: coordinator tiling + every live master's store.
  AuditReport report;
  cluster.AuditInvariants(&report);
  result.audits_ok = report.ok();
  result.audit_summary = report.Summary();

  // Read-back verification: no committed write lost.
  ReadBackResult lost = VerifyReadBack(cluster, kTable, keys, histories);
  result.mismatches = lost.mismatches;
  result.mismatch_detail = std::move(lost.detail);

  // A read's latency is attributed to the phase it was *issued* in.
  result.digest.ops = CountOps(histories);
  for (const ScenarioPhase& phase : spec.phases) {
    std::vector<Tick> latencies;
    ForEachOp(histories, [&](const OpRecord& op) {
      if (op.is_read && op.ok() && op.issued >= phase.start && op.issued < phase.end) {
        latencies.push_back(op.completed - op.issued);
      }
    });
    result.digest.phases.push_back(PhaseLatency{.name = phase.name,
                                                .ops = latencies.size(),
                                                .p50_ns = Quantile(latencies, 0.50),
                                                .p999_ns = Quantile(latencies, 0.999)});
  }

  result.digest.trace_hash = cluster.trace_hash();
  result.digest.events_processed = cluster.events_processed();
  result.digest.drains_completed = cluster.coordinator().drains_completed();
  result.digest.restarts_completed = orchestrator.stats().restarts_completed;
  result.digest.migrations_completed = planner.stats().migrations_completed +
                                       planner.stats().drain_migrations_completed;
  cluster.net().SetFaultInjector(nullptr);
  return result;
}

const std::vector<ScenarioSpec>& ScenarioMatrix() {
  static const std::vector<ScenarioSpec> matrix = [] {
    std::vector<ScenarioSpec> scenarios;

    {
      // Scale-out: three loaded masters plus a standby; the standby is
      // activated mid-run and the planner migrates load onto it.
      ScenarioSpec s;
      s.name = "scale_out";
      s.masters = 4;
      s.standbys = 1;
      s.events = {{ScenarioEvent::Kind::kActivateServer, 15 * kMillisecond, 3}};
      s.phases = {{"before", 0, 15 * kMillisecond},
                  {"rebalancing", 15 * kMillisecond, 35 * kMillisecond},
                  {"after", 35 * kMillisecond, 50 * kMillisecond}};
      scenarios.push_back(std::move(s));
    }

    {
      // Scale-in: drain a loaded master under load; the planner evacuates
      // its quarter with bounded concurrency until it decommissions.
      ScenarioSpec s;
      s.name = "scale_in_drain";
      s.masters = 4;
      s.events = {{ScenarioEvent::Kind::kBeginDrain, 12 * kMillisecond, 3}};
      s.phases = {{"before", 0, 12 * kMillisecond},
                  {"draining", 12 * kMillisecond, 32 * kMillisecond},
                  {"after", 32 * kMillisecond, 50 * kMillisecond}};
      scenarios.push_back(std::move(s));
    }

    {
      // Rolling restart: every master cycled once, one at a time, while
      // the workload keeps running. Longer horizon: each cycle pays crash
      // detection (up to ping interval + timeout) plus recovery + settle.
      ScenarioSpec s;
      s.name = "rolling_restart";
      s.masters = 4;
      s.ops_stop = 80 * kMillisecond;
      s.horizon = 160 * kMillisecond;
      s.events = {{ScenarioEvent::Kind::kRollingRestart, 10 * kMillisecond, 0}};
      s.phases = {{"before", 0, 10 * kMillisecond},
                  {"restarting", 10 * kMillisecond, 80 * kMillisecond}};
      scenarios.push_back(std::move(s));
    }

    {
      // Flash crowd: a burst window triples the offered rate and aims 80%
      // of ops at a handful of hot keys; the planner may split + migrate.
      ScenarioSpec s;
      s.name = "flash_crowd";
      s.masters = 4;
      s.shape = LoadShape::kFlashCrowd;
      s.flash_start = 15 * kMillisecond;
      s.flash_end = 35 * kMillisecond;
      s.flash_rate_multiplier = 3;
      s.phases = {{"before", 0, 15 * kMillisecond},
                  {"flash", 15 * kMillisecond, 35 * kMillisecond},
                  {"after", 35 * kMillisecond, 50 * kMillisecond}};
      scenarios.push_back(std::move(s));
    }

    {
      // Diurnal: offered load follows a trough-peak-trough triangle wave
      // across the run (the planner should not thrash on the swing).
      ScenarioSpec s;
      s.name = "diurnal";
      s.masters = 4;
      s.shape = LoadShape::kDiurnal;
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
