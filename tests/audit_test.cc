// Tests for the invariant-audit layer: clean structures audit clean, and —
// the part that keeps the audits honest — deliberately corrupted state is
// caught, with the status-returning AuditReport naming the violation.
#include <gtest/gtest.h>

#include <string>

#include "src/cluster/cluster.h"
#include "src/common/audit.h"
#include "src/common/dcheck.h"
#include "src/hashtable/hash_table.h"
#include "src/log/log.h"
#include "src/log/side_log.h"
#include "src/store/object_manager.h"
#include "src/store/tablet.h"

namespace rocksteady {
namespace {

bool SummaryContains(const AuditReport& report, const std::string& needle) {
  return report.Summary().find(needle) != std::string::npos;
}

// ------------------------------------------------------------- DCHECK layer.

TEST(DcheckTest, EvaluationMatchesBuildMode) {
  // Enabled builds evaluate the condition (and pass); disabled builds must
  // not evaluate it at all — DCHECK arguments may be expensive.
  int evaluations = 0;
  ROCKSTEADY_DCHECK(++evaluations >= 0);
  ROCKSTEADY_DCHECK_EQ(++evaluations, evaluations);
#if ROCKSTEADY_DCHECK_ENABLED
  EXPECT_EQ(evaluations, 2);
#else
  EXPECT_EQ(evaluations, 0);
#endif
}

#if ROCKSTEADY_DCHECK_ENABLED
TEST(DcheckDeathTest, FailedCheckAborts) {
  EXPECT_DEATH(ROCKSTEADY_DCHECK(1 == 2), "1 == 2");
  EXPECT_DEATH(ROCKSTEADY_DCHECK_EQ(3, 4), "3 vs 4");
}
#endif

// ------------------------------------------------------------ Clean passes.

TEST(AuditTest, FreshStructuresAuditClean) {
  Log log(4 * 1024);
  HashTable table(4);
  TabletManager tablets;
  AuditReport report;
  log.AuditInvariants(&report);
  table.AuditInvariants(&report, &log);
  tablets.AuditInvariants(&report);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(AuditTest, PopulatedObjectManagerAuditsClean) {
  ObjectManager manager(ObjectManagerOptions{.hash_table_log2_buckets = 8,
                                             .segment_size = 4 * 1024});
  manager.tablets().Add(Tablet{1, 0, ~0ull, TabletState::kNormal});
  for (int i = 0; i < 200; i++) {
    const std::string key = "key" + std::to_string(i);
    const KeyHash hash = static_cast<KeyHash>(i) << 40;
    ASSERT_TRUE(manager.Write(1, key, hash, "value", nullptr).ok());
  }
  // Overwrites and removals exercise MarkDead / live-byte accounting.
  for (int i = 0; i < 50; i++) {
    const std::string key = "key" + std::to_string(i);
    const KeyHash hash = static_cast<KeyHash>(i) << 40;
    ASSERT_TRUE(manager.Write(1, key, hash, "updated", nullptr).ok());
  }
  AuditReport report;
  manager.AuditInvariants(&report);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(AuditTest, SideLogAuditsCleanBeforeAndAfterCommit) {
  Log log(4 * 1024);
  SideLog side(&log);
  Log source;
  LogEntryView entry;
  ASSERT_TRUE(source.Read(*source.AppendObject(1, 0x42, "k", "v", 7), &entry));
  ASSERT_TRUE(side.AppendSerialized(entry).ok());
  AuditReport before;
  side.AuditInvariants(&before);
  EXPECT_TRUE(before.ok()) << before.Summary();

  side.Commit();
  AuditReport after;
  side.AuditInvariants(&after);
  log.AuditInvariants(&after);
  EXPECT_TRUE(after.ok()) << after.Summary();
  EXPECT_EQ(side.pending_entries(), 0u);
}

// ---------------------------------------------------------- Failure paths.

TEST(AuditTest, DetectsCorruptEntryChecksum) {
  Log log(4 * 1024);
  ASSERT_TRUE(log.AppendObject(1, 0x42, "key", "value", 1).ok());
  ASSERT_FALSE(log.segments().empty());
  Segment* segment = log.segments().back().get();
  // Flip a value byte of the last entry; its CRC32C no longer matches.
  auto* bytes = const_cast<uint8_t*>(segment->data());
  bytes[segment->used() - 1] ^= 0xff;

  AuditReport report;
  log.AuditInvariants(&report);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(SummaryContains(report, "corrupt entry")) << report.Summary();
}

TEST(AuditTest, DetectsOverlappingTabletRanges) {
  TabletManager tablets;
  tablets.Add(Tablet{1, 0, 1'000, TabletState::kNormal});
  tablets.Add(Tablet{1, 500, 2'000, TabletState::kNormal});
  // A different table sharing the range is NOT an overlap.
  tablets.Add(Tablet{2, 0, 2'000, TabletState::kNormal});

  AuditReport report;
  tablets.AuditInvariants(&report);
  ASSERT_EQ(report.violations().size(), 1u) << report.Summary();
  EXPECT_TRUE(SummaryContains(report, "overlap")) << report.Summary();
}

TEST(AuditTest, CrossLayerAuditAcceptsSplitTilingAndCatchesHoles) {
  // Regression: the ownership audit used to assume one contiguous hash
  // range per table per master. After splits, one map range may be tiled by
  // several local tablets (and vice versa) — that must audit clean, while a
  // genuine hole in the owner's local coverage must not.
  ClusterConfig config;
  config.num_masters = 2;
  config.master.hash_table_log2_buckets = 8;
  config.master.segment_size = 64 * 1024;
  Cluster cluster(config);
  cluster.CreateTable(1, 0);
  const KeyHash quarter = KeyHash{1} << 62;
  cluster.coordinator().SplitTablet(1, 2 * quarter);

  // Re-split only the owner's local view: the map holds two ranges, the
  // owner holds four local tablets tiling them. Still clean.
  TabletManager& local = cluster.master(0).objects().tablets();
  local.Split(1, quarter);
  local.Split(1, 3 * quarter);
  AuditReport clean;
  cluster.coordinator().AuditInvariants(&clean);
  EXPECT_TRUE(clean.ok()) << clean.Summary();

  // Punch a hole in the owner's coverage of the upper map range.
  ASSERT_TRUE(local.Remove(1, 3 * quarter, ~KeyHash{0}));
  AuditReport holed;
  cluster.coordinator().AuditInvariants(&holed);
  ASSERT_FALSE(holed.ok());
  EXPECT_TRUE(SummaryContains(holed, "no local tablet")) << holed.Summary();
}

TEST(AuditTest, DetectsInvertedTabletRange) {
  TabletManager tablets;
  tablets.Add(Tablet{1, 1'000, 10, TabletState::kNormal});
  AuditReport report;
  tablets.AuditInvariants(&report);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(SummaryContains(report, "inverted")) << report.Summary();
}

TEST(AuditTest, DetectsDanglingHashTableRef) {
  Log log(4 * 1024);
  HashTable table(4);
  // Reference into a segment the log has never allocated.
  table.Insert(0xabcdef, LogRef(999, 0));
  AuditReport report;
  table.AuditInvariants(&report, &log);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(SummaryContains(report, "dangles")) << report.Summary();
}

TEST(AuditTest, DetectsHashKeyMismatch) {
  Log log(4 * 1024);
  HashTable table(4);
  auto ref = log.AppendObject(1, /*hash=*/0x11, "k", "v", 1);
  ASSERT_TRUE(ref.ok());
  // File the entry under a different hash than the entry carries.
  table.Insert(/*hash=*/0x22, *ref);
  AuditReport report;
  table.AuditInvariants(&report, &log);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(SummaryContains(report, "resolves to entry keyed")) << report.Summary();
}

TEST(AuditTest, ReportAccumulatesMultipleViolations) {
  // Status-returning mode: one pass collects every violation instead of
  // stopping at the first, and Summary() carries them all.
  TabletManager tablets;
  tablets.Add(Tablet{1, 1'000, 10, TabletState::kNormal});   // Inverted.
  tablets.Add(Tablet{2, 0, 1'000, TabletState::kNormal});
  tablets.Add(Tablet{2, 500, 2'000, TabletState::kNormal});  // Overlap.
  AuditReport report;
  tablets.AuditInvariants(&report);
  EXPECT_EQ(report.violations().size(), 2u) << report.Summary();
  EXPECT_TRUE(SummaryContains(report, "inverted"));
  EXPECT_TRUE(SummaryContains(report, "overlap"));
}

// ---------------------------------------------------- Fatal (DebugAudit).

#if ROCKSTEADY_DCHECK_ENABLED
TEST(AuditDeathTest, DebugAuditDiesOnViolation) {
  TabletManager tablets;
  tablets.Add(Tablet{1, 0, 1'000, TabletState::kNormal});
  tablets.Add(Tablet{1, 500, 2'000, TabletState::kNormal});
  EXPECT_DEATH(DebugAudit(tablets, "tablets in test"), "overlap");
}
#else
TEST(AuditTest, DebugAuditIsFreeInRelease) {
  TabletManager tablets;
  tablets.Add(Tablet{1, 0, 1'000, TabletState::kNormal});
  tablets.Add(Tablet{1, 500, 2'000, TabletState::kNormal});
  DebugAudit(tablets, "tablets in test");  // Must not abort.
}
#endif

}  // namespace
}  // namespace rocksteady
