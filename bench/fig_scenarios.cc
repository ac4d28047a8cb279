// Operational scenario matrix driver: runs each ScenarioMatrix() entry at a
// fixed seed and prints per-phase read latency plus the run's durability
// and convergence accounting. The 20-seed invariant sweep lives in
// tests/scenario_test.cc; this driver is for eyeballing the latency tables
// that EXPERIMENTS.md records.
#include <cstdio>

#include "bench/scenario_harness.h"

namespace rocksteady {
namespace {

constexpr uint64_t kSeed = 42;

void RunAndPrint(const ScenarioSpec& spec) {
  const ScenarioResult result = RunScenario(spec, kSeed);
  std::printf("\n=== scenario: %s (seed %llu) ===\n", spec.name.c_str(),
              static_cast<unsigned long long>(kSeed));
  std::printf("  %-14s %10s %12s %12s\n", "phase", "reads", "p50 (us)", "p99.9 (us)");
  for (const auto& phase : result.digest.phases) {
    std::printf("  %-14s %10llu %12.1f %12.1f\n", phase.name.c_str(),
                static_cast<unsigned long long>(phase.ops),
                static_cast<double>(phase.p50_ns) / 1e3,
                static_cast<double>(phase.p999_ns) / 1e3);
  }
  std::printf("  acked_writes=%llu failed_writes=%llu reads_ok=%llu reads_failed=%llu\n",
              static_cast<unsigned long long>(result.digest.ops.acked_writes),
              static_cast<unsigned long long>(result.digest.ops.failed_writes),
              static_cast<unsigned long long>(result.digest.ops.reads_ok),
              static_cast<unsigned long long>(result.digest.ops.reads_failed));
  std::printf("  migrations=%llu drains=%llu restarts=%llu mismatches=%llu audits=%s "
              "converged=%s trace=%016llx\n",
              static_cast<unsigned long long>(result.digest.planner_migrations_completed +
                                              result.digest.planner_drain_migrations_completed),
              static_cast<unsigned long long>(result.digest.drains_completed),
              static_cast<unsigned long long>(result.digest.restarts_completed),
              static_cast<unsigned long long>(result.digest.lost_writes),
              result.audits_ok ? "ok" : "FAIL",
              result.operations_converged ? "yes" : "NO",
              static_cast<unsigned long long>(result.digest.trace_hash));
}

}  // namespace
}  // namespace rocksteady

int main() {
  for (const auto& spec : rocksteady::ScenarioMatrix()) {
    rocksteady::RunAndPrint(spec);
  }
  return 0;
}
