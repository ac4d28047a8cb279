// Overload-protection and memory-budget tests: admission control / load
// shedding, the migration memory budget (pause -> emergency clean -> resume,
// and graceful abort when the tablet cannot fit), and the log cleaner
// running concurrently with a live migration, and Figure 4's index scans
// offered past the dispatch core's knee.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "bench/index_scaling.h"
#include "src/cluster/cluster.h"
#include "src/common/audit.h"
#include "src/migration/migration_state.h"
#include "src/migration/rocksteady_target.h"

namespace rocksteady {
namespace {

constexpr TableId kTable = 1;
constexpr TableId kChurnTable = 2;
constexpr KeyHash kMid = 1ull << 63;

ClusterConfig TestCluster() {
  ClusterConfig config;
  config.num_masters = 4;
  config.num_clients = 2;
  config.master.hash_table_log2_buckets = 14;
  config.master.segment_size = 64 * 1024;
  return config;
}

void ExpectCleanAudit(const ObjectManager& objects, const char* what) {
  AuditReport report;
  objects.AuditInvariants(&report);
  EXPECT_TRUE(report.ok()) << what << ":\n" << report.Summary();
}

TEST(AdmissionControlTest, QueueBoundsReportFull) {
  Simulator sim;
  CoreSet cores(&sim, 1);
  cores.SetQueueBound(Priority::kMigration, 2);
  EXPECT_FALSE(cores.QueueFull(Priority::kMigration));
  // One task occupies the worker; the next two sit in the queue.
  for (int i = 0; i < 3; i++) {
    cores.EnqueueWorker({Priority::kMigration, [] { return Tick{1'000'000}; }, [] {}});
  }
  EXPECT_TRUE(cores.QueueFull(Priority::kMigration));
  EXPECT_FALSE(cores.QueueFull(Priority::kClient));  // Unbounded by default.
  sim.Run();
  EXPECT_FALSE(cores.QueueFull(Priority::kMigration));
}

// Past the client hard limit the master sheds with kRetryLater instead of
// queueing; clients absorb the shed through their seeded-backoff retry loop,
// so every op still completes.
TEST(AdmissionControlTest, ClientShedsPastHardLimitAndAllOpsComplete) {
  ClusterConfig config = TestCluster();
  config.master.num_workers = 1;
  config.master.client_queue_hard_limit = 8;
  Cluster cluster(config);
  cluster.CreateTable(kTable, 0);
  cluster.LoadTable(kTable, 1'000, 30, 100);

  int ok = 0;
  int failed = 0;
  for (int i = 0; i < 400; i++) {
    cluster.client(i % 2).Read(kTable, Cluster::MakeKey(static_cast<uint64_t>(i), 30),
                               [&](Status status, const std::string&) {
                                 (status == Status::kOk ? ok : failed)++;
                               });
  }
  cluster.Run();
  EXPECT_EQ(ok, 400);
  EXPECT_EQ(failed, 0);
  EXPECT_GT(cluster.master(0).client_sheds(), 0u);
  EXPECT_GT(cluster.client(0).retry_later_retries() + cluster.client(1).retry_later_retries(),
            0u);
}

// The memory-budget happy path: the target crosses the high watermark
// mid-migration, pauses pulls, reclaims dead bytes through emergency
// cleaning, resumes below the low watermark, and completes with every
// record intact (both the migrated table and the churned one whose live
// objects the cleaner relocated).
TEST(MemoryBudgetTest, PausesCleansResumesAndCompletes) {
  ClusterConfig config = TestCluster();
  Cluster cluster(config);
  EnableMigration(&cluster);
  cluster.CreateTable(kTable, 0);
  cluster.CreateTable(kChurnTable, 1);
  cluster.LoadTable(kTable, 5'000, 30, 100);
  // Three generations of the churn table: two thirds of the target's log is
  // dead — exactly the memory emergency cleaning exists to reclaim.
  for (int gen = 0; gen < 3; gen++) {
    cluster.LoadTable(kChurnTable, 3'000, 30, 100);
  }
  MasterServer& target = cluster.master(1);
  const uint64_t base = target.memory_in_use();
  target.set_memory_budget(base + 4 * config.master.segment_size);

  std::optional<MigrationStats> result;
  StartRocksteadyMigration(&cluster, kTable, kMid, ~0ull, 0, 1, RocksteadyOptions{},
                           [&](const MigrationStats& stats) { result = stats; });
  cluster.Run();

  ASSERT_TRUE(result.has_value()) << "migration did not complete";
  EXPECT_FALSE(result->aborted_over_budget);
  EXPECT_GE(result->memory_pauses, 1u);
  EXPECT_GE(result->emergency_clean_segments, 1u);
  EXPECT_GE(target.objects().cleaner().emergency_cleans(), 1u);
  EXPECT_EQ(cluster.coordinator().OwnerOf(kTable, kMid), target.id());
  EXPECT_TRUE(cluster.coordinator().dependencies().empty());
  // Cleaning got (and the migration kept) the target under its budget.
  EXPECT_LE(target.memory_in_use(), target.config().memory_budget_bytes);

  ExpectCleanAudit(target.objects(), "target after budgeted migration");
  ExpectCleanAudit(cluster.master(0).objects(), "source after budgeted migration");

  // Every record of both tables is still readable: migration moved the
  // upper half of kTable, and emergency cleaning relocated (not lost) the
  // churn table's live objects.
  int ok = 0;
  int wrong = 0;
  const std::string expected(100, 'v');
  auto check = [&](Status status, const std::string& value) {
    (status == Status::kOk && value == expected ? ok : wrong)++;
  };
  for (uint64_t i = 0; i < 5'000; i++) {
    cluster.client(0).Read(kTable, Cluster::MakeKey(i, 30), check);
    if (i % 64 == 63) {
      cluster.Run();
    }
  }
  for (uint64_t i = 0; i < 3'000; i++) {
    cluster.client(1).Read(kChurnTable, Cluster::MakeKey(i, 30), check);
    if (i % 64 == 63) {
      cluster.Run();
    }
  }
  cluster.Run();
  EXPECT_EQ(ok, 5'000 + 3'000);
  EXPECT_EQ(wrong, 0);
}

// The memory-budget sad path: the tablet cannot fit even after cleaning
// (the target has no dead bytes to reclaim), so the migration aborts
// gracefully along the §3.4 lineage paths — ownership returns to the
// source, and writes the target acked while it owned the range survive via
// its replicated log tail.
TEST(MemoryBudgetTest, TooSmallBudgetAbortsToSourceWithoutLosingAckedWrites) {
  ClusterConfig config = TestCluster();
  Cluster cluster(config);
  EnableMigration(&cluster);
  cluster.CreateTable(kTable, 0);
  cluster.LoadTable(kTable, 5'000, 30, 100);
  MasterServer& source = cluster.master(0);
  MasterServer& target = cluster.master(1);
  // Room for a couple of segments — nowhere near the ~400 KB tablet.
  target.set_memory_budget(target.memory_in_use() + 3 * config.master.segment_size);

  std::optional<MigrationStats> result;
  auto* manager =
      StartRocksteadyMigration(&cluster, kTable, kMid, ~0ull, 0, 1, RocksteadyOptions{},
                               [&](const MigrationStats& stats) { result = stats; });

  // Writes to migrating keys while the migration runs: some are acked by
  // the target during its ownership window, and none may be lost by the
  // abort. Track which keys were acked with the new value.
  std::vector<std::string> migrating_keys;
  for (uint64_t i = 0; i < 5'000 && migrating_keys.size() < 40; i++) {
    const std::string key = Cluster::MakeKey(i, 30);
    if (HashKey(kTable, key) >= kMid) {
      migrating_keys.push_back(key);
    }
  }
  const std::string new_value(100, 'W');
  int write_acks = 0;
  for (size_t i = 0; i < migrating_keys.size(); i++) {
    cluster.client(0).sim().At(Tick{20'000} + static_cast<Tick>(i) * 10'000, [&, i] {
      cluster.client(0).Write(kTable, migrating_keys[i], new_value, [&](Status status) {
        EXPECT_EQ(status, Status::kOk);
        write_acks++;
      });
    });
  }
  cluster.Run();

  // The migration aborted over budget (done_ is not invoked on abort; the
  // manager's state is the record).
  EXPECT_FALSE(result.has_value());
  EXPECT_TRUE(manager->aborted());
  EXPECT_TRUE(manager->stats().aborted_over_budget);
  EXPECT_GE(manager->stats().memory_pauses, 1u);
  EXPECT_GE(cluster.coordinator().budget_aborts(), 1u);

  // Ownership is back at the source, the dependency row is gone, and the
  // range serves normally again.
  EXPECT_EQ(cluster.coordinator().OwnerOf(kTable, kMid), source.id());
  EXPECT_EQ(cluster.coordinator().OwnerOf(kTable, 0), source.id());
  EXPECT_TRUE(cluster.coordinator().dependencies().empty());

  ExpectCleanAudit(source.objects(), "source after budget abort");
  ExpectCleanAudit(target.objects(), "target after budget abort");
  {
    AuditReport report;
    manager->AuditInvariants(&report);
    EXPECT_TRUE(report.ok()) << "manager after budget abort:\n" << report.Summary();
  }

  // Every write was acked, and every acked write survives the abort.
  EXPECT_EQ(static_cast<size_t>(write_acks), migrating_keys.size());
  int ok = 0;
  int wrong = 0;
  for (const std::string& key : migrating_keys) {
    cluster.client(0).Read(kTable, key, [&](Status status, const std::string& value) {
      (status == Status::kOk && value == new_value ? ok : wrong)++;
    });
  }
  cluster.Run();
  EXPECT_EQ(static_cast<size_t>(ok), migrating_keys.size());
  EXPECT_EQ(wrong, 0);
}

// Satellite of §3.1.3's claim that migration never constrains the cleaner:
// cost-benefit cleaning keeps running on BOTH ends while a migration is in
// flight. No relocated object may be lost, no audit may fail, and the
// migration must complete normally.
TEST(CleanerTest, CleanOnceRunsConcurrentlyWithMigration) {
  ClusterConfig config = TestCluster();
  Cluster cluster(config);
  EnableMigration(&cluster);
  cluster.CreateTable(kTable, 0);
  // Two generations: half the source's log is dead, so the cleaner has real
  // work (and real relocations) to do during the migration.
  cluster.LoadTable(kTable, 5'000, 30, 100);
  cluster.LoadTable(kTable, 5'000, 30, 100);

  std::optional<MigrationStats> result;
  StartRocksteadyMigration(&cluster, kTable, kMid, ~0ull, 0, 1, RocksteadyOptions{},
                           [&](const MigrationStats& stats) { result = stats; });

  // Drive CleanOnce on both ends every 50 us for the duration of the run.
  std::function<void()> kick = [&] {
    if (result.has_value()) {
      return;
    }
    cluster.master(0).objects().RunCleaner(1);
    cluster.master(1).objects().RunCleaner(1);
    cluster.AtSafePoint(cluster.now() + 50 * kMicrosecond, kick);
  };
  cluster.AtSafePoint(cluster.now() + 10 * kMicrosecond, kick);
  cluster.Run();

  ASSERT_TRUE(result.has_value()) << "migration did not complete";
  // The cleaner genuinely ran against the migration's source.
  EXPECT_GT(cluster.master(0).objects().cleaner().segments_cleaned(), 0u);

  ExpectCleanAudit(cluster.master(0).objects(), "source after concurrent cleaning");
  ExpectCleanAudit(cluster.master(1).objects(), "target after concurrent cleaning");

  // No object lost: every record reads back with the latest value, whether
  // it was migrated, relocated by the cleaner, or both.
  int ok = 0;
  int wrong = 0;
  const std::string expected(100, 'v');
  for (uint64_t i = 0; i < 5'000; i++) {
    cluster.client(0).Read(kTable, Cluster::MakeKey(i, 30),
                           [&](Status status, const std::string& value) {
                             (status == Status::kOk && value == expected ? ok : wrong)++;
                           });
    if (i % 64 == 63) {
      cluster.Run();
    }
  }
  cluster.Run();
  EXPECT_EQ(ok, 5'000);
  EXPECT_EQ(wrong, 0);
}

// The source rejects pulls at dispatch once its migration queue is past its
// bound; the target's controller counts the rejection, backs off, and the
// migration still completes.
TEST(AdmissionControlTest, SourceShedsPullsUnderTinyBoundAndMigrationCompletes) {
  ClusterConfig config = TestCluster();
  config.master.num_workers = 1;
  config.master.migration_queue_bound = 1;
  Cluster cluster(config);
  EnableMigration(&cluster);
  cluster.CreateTable(kTable, 0);
  cluster.LoadTable(kTable, 5'000, 30, 100);

  std::optional<MigrationStats> result;
  StartRocksteadyMigration(&cluster, kTable, kMid, ~0ull, 0, 1, RocksteadyOptions{},
                           [&](const MigrationStats& stats) { result = stats; });
  cluster.Run();

  ASSERT_TRUE(result.has_value()) << "migration did not complete";
  // With one worker and eight partitions the bound must have tripped; the
  // controller absorbed every rejection.
  EXPECT_GT(cluster.master(0).migration_pull_rejects(), 0u);
  EXPECT_GE(result->pull_rejections, 1u);
  EXPECT_GE(result->pacing_backoffs, 1u);
  EXPECT_EQ(cluster.coordinator().OwnerOf(kTable, kMid), cluster.master(1).id());
}

// Figure 4's 1-indexlet layout offered 600k scans/s, past its ~500k knee,
// for a shortened window. With every arrival in flight at once, lookups
// queue at the indexlet server until their callers time out, retransmit and
// retry, and the server spends its time on calls nobody waits for (357k
// retransmissions, 1.47M events and 1.93 Mobjects/s in this window; the
// figure's 300 ms window never finished). With a bounded number of scans in
// flight per client the server runs at its knee.
TEST(IndexScanOverloadTest, PastTheKneeGoodputHoldsAndRetransmissionsStayBounded) {
  const index_scaling::Point point =
      index_scaling::RunPoint(index_scaling::Layout::k1i1t, 600e3, 60 * kMillisecond);
  EXPECT_GT(point.achieved_objects, 2.2e6);  // At the knee: ~2.4 Mobjects/s.
  EXPECT_LT(point.retransmissions, 20'000u);
  EXPECT_LT(point.events, 800'000u);
}

}  // namespace
}  // namespace rocksteady
