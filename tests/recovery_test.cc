// Failure-injection tests: distributed crash recovery and Rocksteady's
// lineage rule (§3.4) — crashes of a migration source or target mid-flight.
#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "src/cluster/cluster.h"
#include "src/migration/ramcloud_migration.h"
#include "src/migration/rocksteady_target.h"

namespace rocksteady {
namespace {

constexpr TableId kTable = 1;
constexpr KeyHash kMid = 1ull << 63;

ClusterConfig TestCluster() {
  ClusterConfig config;
  config.num_masters = 5;
  config.num_clients = 2;
  config.master.hash_table_log2_buckets = 14;
  config.master.segment_size = 64 * 1024;
  return config;
}

struct RecoveryFixture {
  explicit RecoveryFixture(uint64_t records = 3'000) : cluster(TestCluster()) {
    EnableMigration(&cluster);
    cluster.CreateTable(kTable, 0);
    cluster.LoadTable(kTable, records, 30, 100);
    num_records = records;
  }

  void CrashAndRecover(size_t master_index) {
    cluster.master(master_index).Crash();
    bool recovered = false;
    cluster.coordinator().HandleCrash(cluster.master(master_index).id(),
                                      [&] { recovered = true; });
    cluster.Run();
    EXPECT_TRUE(recovered);
  }

  // Counts records readable with the expected value via a client.
  int CountCorrect(const std::map<std::string, std::string>& overrides,
                   const std::string& default_value) {
    int correct = 0;
    for (uint64_t i = 0; i < num_records; i++) {
      const std::string key = Cluster::MakeKey(i, 30);
      const std::string expected =
          overrides.count(key) ? overrides.at(key) : default_value;
      cluster.client(0).Read(kTable, key, [&, expected](Status s, const std::string& v) {
        correct += (s == Status::kOk && v == expected);
      });
      if (i % 64 == 63) {
        cluster.Run();
      }
    }
    cluster.Run();
    return correct;
  }

  Cluster cluster;
  uint64_t num_records = 0;
};

TEST(RecoveryTest, CrashWithoutMigrationRestoresAllData) {
  RecoveryFixture f;
  // A few fresh durable writes before the crash (they exist only via
  // replication, not the bulk-load seed).
  std::map<std::string, std::string> overrides;
  int writes = 0;
  for (uint64_t i = 0; i < 20; i++) {
    const std::string key = Cluster::MakeKey(i, 30);
    overrides[key] = "fresh-write-" + std::to_string(i);
    f.cluster.client(0).Write(kTable, key, overrides[key], [&](Status s) {
      EXPECT_EQ(s, Status::kOk);
      writes++;
    });
  }
  f.cluster.Run();
  ASSERT_EQ(writes, 20);

  f.CrashAndRecover(0);

  // Ownership moved off the crashed server.
  EXPECT_NE(f.cluster.coordinator().OwnerOf(kTable, 0), f.cluster.master(0).id());
  EXPECT_NE(f.cluster.coordinator().OwnerOf(kTable, ~0ull), f.cluster.master(0).id());

  EXPECT_EQ(f.CountCorrect(overrides, std::string(100, 'v')),
            static_cast<int>(f.num_records));
}

TEST(RecoveryTest, RemovesSurviveRecovery) {
  RecoveryFixture f(500);
  int ops = 0;
  f.cluster.client(0).Remove(kTable, Cluster::MakeKey(7, 30), [&](Status s) {
    EXPECT_EQ(s, Status::kOk);
    ops++;
  });
  f.cluster.Run();
  ASSERT_EQ(ops, 1);
  f.CrashAndRecover(0);
  Status status = Status::kOk;
  f.cluster.client(0).Read(kTable, Cluster::MakeKey(7, 30),
                           [&](Status s, const std::string&) { status = s; });
  f.cluster.Run();
  EXPECT_EQ(status, Status::kObjectNotFound);
}

TEST(RecoveryTest, TargetCrashMidMigrationFallsBackToSource) {
  RecoveryFixture f;
  bool migration_done = false;
  StartRocksteadyMigration(&f.cluster, kTable, kMid, ~0ull, 0, 1, RocksteadyOptions{},
                           [&](const MigrationStats&) { migration_done = true; });

  // Let the migration get going, write to migrating keys at the *target*
  // (ownership moved there), then crash the target.
  std::map<std::string, std::string> overrides;
  f.cluster.RunUntil(f.cluster.now() + 100 * kMicrosecond);
  int writes = 0;
  for (uint64_t i = 0; i < f.num_records && writes < 0 + 10; i++) {
    const std::string key = Cluster::MakeKey(i, 30);
    if (HashKey(kTable, key) >= kMid) {
      overrides[key] = "written-at-target";
      f.cluster.client(0).Write(kTable, key, overrides[key], [](Status) {});
      writes++;
    }
  }
  f.cluster.RunUntil(f.cluster.now() + 300 * kMicrosecond);
  ASSERT_FALSE(migration_done) << "crash must hit mid-migration";
  ASSERT_FALSE(f.cluster.coordinator().dependencies().empty());

  f.CrashAndRecover(1);

  // §3.4: ownership returns to the source...
  EXPECT_EQ(f.cluster.coordinator().OwnerOf(kTable, kMid), f.cluster.master(0).id());
  EXPECT_TRUE(f.cluster.coordinator().dependencies().empty());
  // ...and the target's log tail (the fresh writes) reached the source via
  // its backups' replicas, so nothing is lost.
  EXPECT_EQ(f.CountCorrect(overrides, std::string(100, 'v')),
            static_cast<int>(f.num_records));
}

TEST(RecoveryTest, SourceCrashMidMigrationRecoversEverything) {
  RecoveryFixture f;
  bool migration_done = false;
  StartRocksteadyMigration(&f.cluster, kTable, kMid, ~0ull, 0, 1, RocksteadyOptions{},
                           [&](const MigrationStats&) { migration_done = true; });
  std::map<std::string, std::string> overrides;
  f.cluster.RunUntil(f.cluster.now() + 100 * kMicrosecond);
  int writes = 0;
  for (uint64_t i = 0; i < f.num_records && writes < 10; i++) {
    const std::string key = Cluster::MakeKey(i, 30);
    if (HashKey(kTable, key) >= kMid) {
      overrides[key] = "target-write-before-source-crash";
      f.cluster.client(0).Write(kTable, key, overrides[key], [](Status) {});
      writes++;
    }
  }
  f.cluster.RunUntil(f.cluster.now() + 300 * kMicrosecond);
  ASSERT_FALSE(migration_done) << "crash must hit mid-migration";

  f.CrashAndRecover(0);

  // The migrating range was re-homed somewhere alive, and every record —
  // including writes the target serviced during migration — survives.
  EXPECT_NE(f.cluster.coordinator().OwnerOf(kTable, kMid), f.cluster.master(0).id());
  EXPECT_TRUE(f.cluster.coordinator().dependencies().empty());
  EXPECT_EQ(f.CountCorrect(overrides, std::string(100, 'v')),
            static_cast<int>(f.num_records));
}

// §3.4 corner: the target dies while a PriorityPull batch is outstanding —
// clients are parked on records that will now never arrive from this target.
// Recovery must fall back to the source and the parked reads must retry
// their way to the correct values.
TEST(RecoveryTest, TargetCrashDuringPriorityPullBatch) {
  RecoveryFixture f;
  bool migration_done = false;
  StartRocksteadyMigration(&f.cluster, kTable, kMid, ~0ull, 0, 1, RocksteadyOptions{},
                           [&](const MigrationStats&) { migration_done = true; });
  // Let ownership transfer, then read migrated-range keys the target cannot
  // have yet: each miss batches into a PriorityPull.
  f.cluster.RunUntil(f.cluster.now() + 50 * kMicrosecond);
  int reads_issued = 0;
  int reads_ok = 0;
  for (uint64_t i = 0; i < f.num_records && reads_issued < 8; i++) {
    const std::string key = Cluster::MakeKey(i, 30);
    if (HashKey(kTable, key) >= kMid) {
      f.cluster.client(0).Read(kTable, key, [&](Status s, const std::string& v) {
        reads_ok += (s == Status::kOk && v == std::string(100, 'v'));
      });
      reads_issued++;
    }
  }
  // A few microseconds in, the batch is in flight / being replayed.
  f.cluster.RunUntil(f.cluster.now() + 10 * kMicrosecond);
  ASSERT_FALSE(migration_done) << "crash must hit mid-migration";

  f.CrashAndRecover(1);

  // Ownership fell back to the source and the parked reads completed there.
  EXPECT_EQ(f.cluster.coordinator().OwnerOf(kTable, kMid), f.cluster.master(0).id());
  EXPECT_TRUE(f.cluster.coordinator().dependencies().empty());
  EXPECT_EQ(reads_ok, reads_issued);
  EXPECT_EQ(f.CountCorrect({}, std::string(100, 'v')), static_cast<int>(f.num_records));
}

// §3.4 corner: the source dies *after* every record has been pulled but
// while the target is still lazily re-replicating its side logs — the window
// where the migrated data exists only in the target's DRAM plus the
// source's (pre-migration) backup replicas.
TEST(RecoveryTest, SourceCrashDuringLazyRereplication) {
  RecoveryFixture f;
  bool migration_done = false;
  auto* manager =
      StartRocksteadyMigration(&f.cluster, kTable, kMid, ~0ull, 0, 1, RocksteadyOptions{},
                               [&](const MigrationStats&) { migration_done = true; });
  // Step until the pulls finish and the replication epilogue begins.
  const Tick limit = f.cluster.now() + 50 * kMillisecond;
  while (!migration_done &&
         manager->phase() != RocksteadyMigrationManager::Phase::kReplicating &&
         f.cluster.now() < limit) {
    f.cluster.RunUntil(f.cluster.now() + 2 * kMicrosecond);
  }
  ASSERT_EQ(static_cast<int>(manager->phase()),
            static_cast<int>(RocksteadyMigrationManager::Phase::kReplicating))
      << "crash must hit the re-replication window";

  f.CrashAndRecover(0);

  // The migrating range stays off the crashed source and every record is
  // readable: the pulled data survives in the target, the rest re-homes
  // from the source's backups.
  EXPECT_NE(f.cluster.coordinator().OwnerOf(kTable, kMid), f.cluster.master(0).id());
  EXPECT_TRUE(f.cluster.coordinator().dependencies().empty());
  EXPECT_EQ(f.CountCorrect({}, std::string(100, 'v')), static_cast<int>(f.num_records));
}

// §3.4 corner: the (quorum-replicated) coordinator crash-restarts in the
// middle of a migration. Registration / ownership / drop RPCs are idempotent
// and re-driven, so the migration must ride through and complete.
TEST(RecoveryTest, CoordinatorRestartMidMigration) {
  RecoveryFixture f;
  bool migration_done = false;
  StartRocksteadyMigration(&f.cluster, kTable, kMid, ~0ull, 0, 1, RocksteadyOptions{},
                           [&](const MigrationStats&) { migration_done = true; });
  f.cluster.RunUntil(f.cluster.now() + 100 * kMicrosecond);
  ASSERT_FALSE(migration_done);
  f.cluster.coordinator().Crash();
  f.cluster.AtSafePoint(f.cluster.now() + 5 * kMillisecond,
                        [&] { f.cluster.coordinator().Restart(); });
  f.cluster.Run();

  EXPECT_TRUE(migration_done);
  EXPECT_EQ(f.cluster.coordinator().OwnerOf(kTable, kMid), f.cluster.master(1).id());
  EXPECT_TRUE(f.cluster.coordinator().dependencies().empty());
  EXPECT_EQ(f.CountCorrect({}, std::string(100, 'v')), static_cast<int>(f.num_records));
}

TEST(RecoveryTest, ReadsDuringRecoveryEventuallySucceed) {
  RecoveryFixture f(500);
  f.cluster.master(0).Crash();
  bool recovered = false;
  f.cluster.coordinator().HandleCrash(f.cluster.master(0).id(), [&] { recovered = true; });
  // Issue a read immediately — before recovery completes. It must retry its
  // way to success (kServerDown timeout -> refresh -> kRetryLater -> OK).
  Status status = Status::kInvalidState;
  std::string value;
  f.cluster.client(0).Read(kTable, Cluster::MakeKey(3, 30),
                           [&](Status s, const std::string& v) {
                             status = s;
                             value = v;
                           });
  f.cluster.Run();
  EXPECT_TRUE(recovered);
  EXPECT_EQ(status, Status::kOk);
  EXPECT_EQ(value, std::string(100, 'v'));
}

TEST(RecoveryTest, RecoverySpreadsTabletsAcrossSurvivors) {
  RecoveryFixture f(2'000);
  // Pre-split the table into 4 tablets all owned by master 0.
  f.cluster.coordinator().SplitTablet(kTable, 1ull << 62);
  f.cluster.coordinator().SplitTablet(kTable, 2ull << 62);
  f.cluster.coordinator().SplitTablet(kTable, 3ull << 62);
  f.CrashAndRecover(0);
  std::set<ServerId> owners;
  for (const auto& entry : f.cluster.coordinator().GetAllTablets()) {
    if (entry.table == kTable) {
      owners.insert(entry.owner);
    }
  }
  EXPECT_GE(owners.size(), 2u);  // Round-robin re-homing.
  EXPECT_EQ(owners.count(f.cluster.master(0).id()), 0u);
}

TEST(RecoveryTest, DeadBackupCostsCallsPerReplayedRangeNotPerEntry) {
  // The crashed master never restarts, and it is a backup of three of the
  // four recovery masters: every re-replication leg to it fails through all
  // its attempts. Recovery re-replicates what it replayed as ranges of real
  // segments, so those doomed legs scale with the replayed ranges (a few
  // dozen here), not with the 3,000 replayed entries.
  RecoveryFixture f;
  f.cluster.coordinator().SplitTablet(kTable, 1ull << 62);
  f.cluster.coordinator().SplitTablet(kTable, 2ull << 62);
  f.cluster.coordinator().SplitTablet(kTable, 3ull << 62);
  const uint64_t calls_before = f.cluster.rpc().calls_issued();
  const uint64_t retransmissions_before = f.cluster.rpc().retransmissions();
  f.CrashAndRecover(0);
  const uint64_t calls = f.cluster.rpc().calls_issued() - calls_before;
  const uint64_t retransmissions = f.cluster.rpc().retransmissions() - retransmissions_before;
  // Measured: 2,843 calls and 11,299 retransmissions. Re-replicating each
  // replayed entry on its own took 475,886 and 2,343,941.
  EXPECT_LT(calls, 4'000u);
  EXPECT_LT(retransmissions, 16'000u);
  EXPECT_EQ(f.CountCorrect({}, std::string(100, 'v')), static_cast<int>(f.num_records));
}

enum class ReplayPath { kLazy, kSync, kBaseline };

const char* Name(ReplayPath path) {
  switch (path) {
    case ReplayPath::kLazy:
      return "lazy";
    case ReplayPath::kSync:
      return "sync";
    case ReplayPath::kBaseline:
      return "baseline";
  }
  return "";
}

void PrintTo(ReplayPath path, std::ostream* os) { *os << Name(path); }

class RereplicationRecoveryTest : public ::testing::TestWithParam<ReplayPath> {};

TEST_P(RereplicationRecoveryTest, TargetCrashAfterMigrationKeepsEveryRecord) {
  // Migrated data is durable only through the target's re-replication of
  // the segments it replayed into (§3.1.3, §3.4). Once the migration is
  // done, the target's backups are the records' only other home: crash the
  // target and every record must come back from them. Reads issued while
  // Rocksteady migrates hit records the target lacks, so some records
  // arrive by PriorityPull, into a side log of their own.
  RecoveryFixture f;
  bool migration_done = false;
  if (GetParam() == ReplayPath::kBaseline) {
    StartBaselineMigration(&f.cluster, kTable, kMid, ~0ull, 0, 1, BaselineMigrateOptions{},
                           [&](const BaselineStats&) { migration_done = true; });
  } else {
    RocksteadyOptions options;
    options.lazy_rereplication = GetParam() == ReplayPath::kLazy;
    StartRocksteadyMigration(&f.cluster, kTable, kMid, ~0ull, 0, 1, options,
                             [&](const MigrationStats&) { migration_done = true; });
  }
  f.cluster.RunUntil(f.cluster.now() + 50 * kMicrosecond);
  int reads_issued = 0;
  int reads_ok = 0;
  for (uint64_t i = 0; i < f.num_records && reads_issued < 8; i++) {
    const std::string key = Cluster::MakeKey(i, 30);
    if (HashKey(kTable, key) >= kMid) {
      f.cluster.client(0).Read(kTable, key, [&](Status s, const std::string& v) {
        reads_ok += (s == Status::kOk && v == std::string(100, 'v'));
      });
      reads_issued++;
    }
  }
  f.cluster.Run();
  ASSERT_TRUE(migration_done);
  ASSERT_EQ(reads_ok, reads_issued);
  ASSERT_EQ(f.cluster.coordinator().OwnerOf(kTable, kMid), f.cluster.master(1).id());
  ASSERT_TRUE(f.cluster.coordinator().dependencies().empty());

  f.CrashAndRecover(1);

  EXPECT_NE(f.cluster.coordinator().OwnerOf(kTable, kMid), f.cluster.master(1).id());
  EXPECT_EQ(f.CountCorrect({}, std::string(100, 'v')), static_cast<int>(f.num_records));
}

INSTANTIATE_TEST_SUITE_P(Paths, RereplicationRecoveryTest,
                         ::testing::Values(ReplayPath::kLazy, ReplayPath::kSync,
                                           ReplayPath::kBaseline),
                         [](const ::testing::TestParamInfo<ReplayPath>& info) {
                           return std::string(Name(info.param));
                         });

}  // namespace
}  // namespace rocksteady
