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
  EXPECT_EQ(first.digest.lost_writes, 0u) << spec.name << " seed " << seed
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
  // No matrix scenario crashes a master, so the restart-after-recovery hook
  // stays unarmed: every master ends up, and the rolling-restart
  // orchestrator alone restarts its victims, each once.
  EXPECT_EQ(first.digest.recovery_restarts, 0u) << spec.name << " seed " << seed;
  EXPECT_EQ(first.digest.masters_up, static_cast<uint64_t>(spec.cluster.num_masters))
      << spec.name << " seed " << seed;
  if (spec.name == "rolling_restart") {
    EXPECT_EQ(first.digest.restarts_completed, 4u) << "seed " << seed;
  }

  // Determinism gate: the same (scenario, seed) replays bit-identically at
  // 4 threaded lanes (replay determinism and lane invariance in one run).
  const ScenarioResult second = RunScenario(spec, seed, 4);
  EXPECT_EQ(first.digest, second.digest)
      << spec.name << " seed " << seed << ": 4-lane replay diverged";
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

// What a run turns on follows from its events. A master-crash event arms
// the hook that restarts a recovered master: the victim ends up, restarted
// exactly once after its recovery. (ScenarioMatrixTest checks that the hook
// stays unarmed without a crash event.)
TEST(ScenarioRulesTest, OnlyACrashEventArmsTheRestartHook) {
  ScenarioSpec crash;
  crash.name = "one_crash";
  crash.records = 500;
  crash.gap = [](Random&, Tick) { return 50 * kMicrosecond; };
  crash.ops_stop = 20 * kMillisecond;
  crash.horizon = 60 * kMillisecond;
  crash.events = {{.kind = ScenarioEvent::Kind::kCrashMaster,
                   .at = 5 * kMillisecond,
                   .master_index = 2}};
  const ScenarioResult crashed = RunScenario(crash, 1);
  EXPECT_EQ(crashed.digest.crashes_detected, 1u);
  EXPECT_EQ(crashed.digest.recoveries_completed, 1u);
  EXPECT_EQ(crashed.digest.recovery_restarts, 1u);
  EXPECT_EQ(crashed.digest.masters_up, 4u);
  EXPECT_EQ(crashed.digest.lost_writes, 0u) << crashed.mismatch_detail;
  EXPECT_TRUE(crashed.audits_ok) << crashed.audit_summary;
}

}  // namespace
}  // namespace rocksteady
