#include "bench/scenario_harness.h"

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

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
constexpr size_t kKeyLength = 30;
constexpr size_t kValueLength = 100;
constexpr size_t kFlashHotKeys = 8;
constexpr double kFlashHotFraction = 0.8;
// Diurnal trough rate as a fraction of the peak (ops are skipped, not
// delayed, so the trace stays a function of the seed alone).
constexpr double kDiurnalTroughFraction = 0.35;

// Durability reference model: the last acked value per key, plus every
// value whose write failed (a "failed" write racing a fault may still have
// landed — reads may legally observe it).
struct KeyState {
  bool acked = false;
  std::string last_acked;
  std::set<std::string> failed_values;
};

struct PhaseCollector {
  ScenarioPhase spec;
  std::vector<Tick> latencies;
};

Tick Percentile(std::vector<Tick>& sorted, double fraction) {
  if (sorted.empty()) {
    return 0;
  }
  const size_t index = std::min(sorted.size() - 1,
                                static_cast<size_t>(static_cast<double>(sorted.size()) * fraction));
  return sorted[index];
}

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

ScenarioResult RunScenario(const ScenarioSpec& spec, uint64_t seed) {
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
  Cluster cluster(config);
  cluster.net().SetFaultInjector(&injector);
  EnableMigration(&cluster);
  // In-event clock and timers: the op pump runs on the coordinator's node;
  // operator actions run at safe points.
  Simulator& sim = cluster.coordinator().sim();

  // Standbys join the server list but own nothing until activated.
  const size_t active = spec.masters - spec.standbys;
  for (size_t i = active; i < spec.masters; i++) {
    cluster.coordinator().MarkStandby(cluster.master(i).id());
  }

  // Spread the table evenly across the active masters, then load.
  cluster.CreateTable(kTable, 0);
  for (size_t i = 1; i < active; i++) {
    const KeyHash split = static_cast<KeyHash>((~0ull / active) * i);
    cluster.coordinator().SplitTablet(kTable, split);
  }
  {
    const auto tablets = cluster.coordinator().GetTableConfig(kTable);
    for (size_t i = 0; i < tablets.size(); i++) {
      const ServerId owner = cluster.master(i % active).id();
      if (tablets[i].owner != owner) {
        cluster.coordinator().ReassignTablet(tablets[i].table, tablets[i].start_hash,
                                             tablets[i].end_hash, owner);
      }
    }
  }
  cluster.LoadTable(kTable, spec.records, kKeyLength, kValueLength);

  std::vector<std::string> keys;
  keys.reserve(spec.records);
  for (uint64_t i = 0; i < spec.records; i++) {
    keys.push_back(Cluster::MakeKey(i, kKeyLength));
  }

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

  // Phase collectors: a read's latency is attributed to the phase it was
  // *issued* in.
  std::vector<PhaseCollector> phases;
  for (const auto& phase : spec.phases) {
    phases.push_back(PhaseCollector{phase, {}});
  }
  auto record_latency = [&phases](Tick issued_at, Tick latency) {
    for (auto& phase : phases) {
      if (issued_at >= phase.spec.start && issued_at < phase.spec.end) {
        phase.latencies.push_back(latency);
        break;
      }
    }
  };

  // Open-loop op pump with the durability reference.
  ScenarioResult result;
  Random ops_rng(seed * 31 + 5);
  std::map<std::string, KeyState> reference;
  std::set<std::string> write_in_flight;
  uint64_t op_index = 0;
  std::function<void()> pump = [&] {
    const Tick now = sim.now();
    if (now >= spec.ops_stop) {
      return;
    }
    const bool flash = InFlashWindow(spec, now);
    Tick gap = spec.op_gap;
    if (flash && spec.flash_rate_multiplier > 1) {
      gap = spec.op_gap / static_cast<Tick>(spec.flash_rate_multiplier);
    }
    sim.After(gap, pump);
    // Diurnal trough: shed the complement of the offered fraction. The
    // draw happens unconditionally so the random stream (and hence the
    // trace) is a pure function of the seed.
    const bool issue = ops_rng.NextDouble() < OfferedFraction(spec, now);
    if (!issue) {
      return;
    }
    std::string key;
    if (flash && ops_rng.NextDouble() < kFlashHotFraction) {
      key = keys[ops_rng.Uniform(kFlashHotKeys)];
    } else {
      key = keys[ops_rng.Uniform(keys.size())];
    }
    bool is_read = ops_rng.NextDouble() >= spec.write_fraction;
    if (!is_read && write_in_flight.contains(key)) {
      is_read = true;  // Serialize writes per key.
    }
    RamCloudClient& client = cluster.client(op_index % cluster.num_clients());
    if (is_read) {
      client.Read(kTable, key, [&result, &record_latency, &sim, issued = now](
                                   Status s, const std::string&) {
        if (s == Status::kOk || s == Status::kObjectNotFound) {
          result.digest.reads_ok++;
          record_latency(issued, sim.now() - issued);
        } else {
          result.digest.reads_failed++;
        }
      });
    } else {
      const std::string value = "scenario-" + std::to_string(op_index);
      KeyState* state = &reference[key];
      write_in_flight.insert(key);
      client.Write(kTable, key, value,
                   [&result, &write_in_flight, state, key, value](Status s) {
                     write_in_flight.erase(key);
                     if (s == Status::kOk) {
                       state->acked = true;
                       state->last_acked = value;
                       result.digest.acked_writes++;
                     } else {
                       state->failed_values.insert(value);
                       result.digest.failed_writes++;
                     }
                   });
    }
    op_index++;
  };
  cluster.coordinator().sim().After(spec.op_gap, pump);

  cluster.RunUntil(spec.horizon);
  planner.Stop();
  cluster.coordinator().StopFailureDetector();
  cluster.Run();

  // Operations convergence: every uncancelled drain reached decommissioned,
  // and a requested rolling restart ran to completion.
  result.operations_converged = !rolling_restart_used || rolling_restart_done;
  for (const ServerId id : drained) {
    result.operations_converged &=
        cluster.coordinator().lifecycle(id) == ServerLifecycle::kDecommissioned;
  }

  // Invariant audits: coordinator tiling + every live master's store.
  AuditReport report;
  cluster.coordinator().AuditInvariants(&report);
  for (size_t i = 0; i < cluster.num_masters(); i++) {
    if (!cluster.master(i).crashed()) {
      cluster.master(i).objects().AuditInvariants(&report);
    }
  }
  result.audits_ok = report.ok();
  result.audit_summary = report.Summary();

  // Read-back verification: no committed write lost.
  const std::string default_value(kValueLength, 'v');
  for (uint64_t i = 0; i < spec.records; i++) {
    const std::string& key = keys[i];
    cluster.client(0).Read(kTable, key, [&result, &reference, &default_value, &cluster, key](
                                            Status s, const std::string& v) {
      const auto it = reference.find(key);
      const KeyState* state = it == reference.end() ? nullptr : &it->second;
      bool ok = false;
      if (s == Status::kOk) {
        if (state != nullptr && state->acked) {
          ok = v == state->last_acked || state->failed_values.contains(v);
        } else if (state != nullptr) {
          ok = v == default_value || state->failed_values.contains(v);
        } else {
          ok = v == default_value;
        }
      }
      if (!ok) {
        result.mismatches++;
        const KeyHash hash = HashKey(kTable, key);
        result.mismatch_detail += "key=" + key + " status=" +
                                  std::to_string(static_cast<int>(s)) + " got='" + v + "'" +
                                  " want='" + (state ? state->last_acked : "") + "' hash=" +
                                  std::to_string(hash) + " owner=" +
                                  std::to_string(cluster.coordinator().OwnerOf(kTable, hash)) +
                                  "\n";
      }
    });
    if (i % 64 == 63) {
      cluster.Run();
    }
  }
  cluster.Run();

  for (auto& phase : phases) {
    std::sort(phase.latencies.begin(), phase.latencies.end());
    PhaseLatency out;
    out.name = phase.spec.name;
    out.ops = phase.latencies.size();
    out.p50_ns = Percentile(phase.latencies, 0.50);
    out.p999_ns = Percentile(phase.latencies, 0.999);
    result.digest.phases.push_back(std::move(out));
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
