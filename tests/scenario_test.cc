// The operational scenario matrix as chaos suites: every (scenario, seed)
// pair runs on a lossy fabric with the full operations stack live and must
// finish with zero lost acked writes, clean invariant audits, converged
// operations (drains decommissioned, restarts completed), and a
// bit-identical digest when replayed at 4 threaded lanes.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "bench/scenario_harness.h"

namespace rocksteady {
namespace {

class ScenarioMatrixTest
    : public ::testing::TestWithParam<std::tuple<size_t, uint64_t>> {};

TEST_P(ScenarioMatrixTest, ChaosInvariantsAndReplay) {
  const size_t index = std::get<0>(GetParam());
  const uint64_t seed = std::get<1>(GetParam());
  const ScenarioSpec& spec = ScenarioMatrix()[index];

  const ScenarioResult first = RunScenario(spec, seed);
  EXPECT_GT(first.digest.ops.acked_writes, 0u) << spec.name << " seed " << seed;
  EXPECT_EQ(first.mismatches, 0u) << spec.name << " seed " << seed
                                  << ": acked writes lost:\n" << first.mismatch_detail;
  EXPECT_TRUE(first.audits_ok) << spec.name << " seed " << seed << ":\n"
                               << first.audit_summary;
  EXPECT_TRUE(first.operations_converged)
      << spec.name << " seed " << seed << ": drain/restart did not converge";
  // Every phase saw traffic (a phase with zero ops means the load curve or
  // the phase windows are misconfigured, and its p99.9 would be vacuous).
  for (const auto& phase : first.digest.phases) {
    EXPECT_GT(phase.ops, 0u) << spec.name << " phase " << phase.name;
  }

  // Determinism gate: the same (scenario, seed) replays bit-identically at
  // 4 threaded lanes (replay determinism and lane invariance in one run).
  const ScenarioResult second = RunScenario(spec, seed, 4);
  EXPECT_TRUE(first.digest == second.digest)
      << spec.name << " seed " << seed << ": 4-lane replay diverged (trace "
      << first.digest.trace_hash << " vs " << second.digest.trace_hash << ", events "
      << first.digest.events_processed << " vs " << second.digest.events_processed << ")";
}

std::string ScenarioParamName(
    const ::testing::TestParamInfo<std::tuple<size_t, uint64_t>>& info) {
  return ScenarioMatrix()[std::get<0>(info.param)].name + "_s" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScenarioMatrixTest,
                         ::testing::Combine(::testing::Range<size_t>(0, 5),
                                            ::testing::Range<uint64_t>(0, 20)),
                         ScenarioParamName);

}  // namespace
}  // namespace rocksteady
