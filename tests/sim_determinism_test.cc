// End-to-end determinism harness: the simulation's core promise is that a
// run is a pure function of its seed. This runs a full YCSB-B Rocksteady
// migration scenario twice with the same seed and asserts the event traces
// are byte-identical (same trace hash, same event count, same final state);
// a different seed must diverge.
#include <gtest/gtest.h>

#include "bench/client_history.h"
#include "bench/scenario_harness.h"

namespace rocksteady {
namespace {

constexpr KeyHash kMid = 1ull << 63;
constexpr uint64_t kRecords = 2'000;

// One full scenario: load a table, offer YCSB-B load against it from one
// client, migrate the upper half mid-run, drain everything.
ScenarioSpec DeterminismSpec() {
  ScenarioSpec s;
  s.name = "sim_determinism";
  s.cluster.num_clients = 1;
  s.spread = false;
  s.records = kRecords;
  s.gap = PoissonGap(50'000);
  s.ops_stop = kSecond / 10;
  s.events = {{.kind = ScenarioEvent::Kind::kMigrate,
               .at = kSecond / 100,
               .master_index = 0,
               .target_index = 1,
               .start_hash = kMid}};
  return s;
}

ScenarioResult::Digest RunDeterminism(uint64_t seed) {
  const ScenarioResult result = RunScenario(DeterminismSpec(), seed);
  EXPECT_EQ(result.digest.migrations_finished, 1u) << "migration did not complete";
  // The migrated cluster must also be *consistent*, not just deterministic.
  EXPECT_TRUE(result.audits_ok) << result.audit_summary;
  return result.digest;
}

TEST(SimDeterminismTest, IdenticalSeedsProduceIdenticalTraces) {
  const ScenarioResult::Digest first = RunDeterminism(42);
  const ScenarioResult::Digest second = RunDeterminism(42);
  EXPECT_EQ(first.trace_hash, second.trace_hash);
  EXPECT_EQ(first, second);
  // The scenario actually exercised the machinery.
  EXPECT_GT(first.events_processed, 10'000u);
  EXPECT_GT(first.records_pulled, 0u);
  EXPECT_GT(first.ops.ok(), 0u);
  EXPECT_EQ(first.master_objects[0] + first.master_objects[1], kRecords);
}

TEST(SimDeterminismTest, DifferentSeedsDiverge) {
  // Guards against a degenerate hash (e.g. constant) passing the test above.
  const ScenarioResult::Digest first = RunDeterminism(42);
  const ScenarioResult::Digest other = RunDeterminism(43);
  EXPECT_NE(first.trace_hash, other.trace_hash);
}

}  // namespace
}  // namespace rocksteady
