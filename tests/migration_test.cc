// Integration tests for Rocksteady migration (all modes) and the baseline
// RAMCloud migration: data integrity, ownership handoff, priority pulls,
// side-log commit, and protocol invariants.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>

#include "src/cluster/cluster.h"
#include "src/migration/migration_state.h"
#include "src/migration/ramcloud_migration.h"
#include "src/migration/rocksteady_target.h"

namespace rocksteady {
namespace {

constexpr TableId kTable = 1;
constexpr KeyHash kMid = 1ull << 63;

ClusterConfig TestCluster() {
  ClusterConfig config;
  config.num_masters = 4;
  config.num_clients = 2;
  config.master.hash_table_log2_buckets = 14;
  config.master.segment_size = 64 * 1024;
  return config;
}

struct MigrationFixture {
  explicit MigrationFixture(uint64_t records = 5'000) : cluster(TestCluster()) {
    EnableMigration(&cluster);
    cluster.CreateTable(kTable, 0);
    cluster.LoadTable(kTable, records, 30, 100);
    num_records = records;
  }

  // Runs a Rocksteady migration of the upper half from master 0 to 1.
  MigrationStats Migrate(const RocksteadyOptions& options) {
    std::optional<MigrationStats> result;
    StartRocksteadyMigration(&cluster, kTable, kMid, ~0ull, 0, 1, options,
                             [&](const MigrationStats& stats) { result = stats; });
    cluster.Run();
    EXPECT_TRUE(result.has_value()) << "migration did not complete";
    return result.value_or(MigrationStats{});
  }

  // Reads every record through the client and checks values.
  void VerifyAllRecords(const std::string& expected_value) {
    int ok = 0;
    int wrong = 0;
    for (uint64_t i = 0; i < num_records; i++) {
      cluster.client(0).Read(kTable, Cluster::MakeKey(i, 30),
                             [&, i](Status s, const std::string& v) {
                               if (s == Status::kOk && v == expected_value) {
                                 ok++;
                               } else {
                                 wrong++;
                               }
                             });
      if (i % 64 == 63) {
        cluster.Run();  // Bound outstanding requests.
      }
    }
    cluster.Run();
    EXPECT_EQ(static_cast<uint64_t>(ok), num_records);
    EXPECT_EQ(wrong, 0);
  }

  Cluster cluster;
  uint64_t num_records = 0;
};

TEST(RocksteadyMigrationTest, MovesAllDataAndOwnership) {
  MigrationFixture f;
  const uint64_t on_source_before = f.cluster.master(0).objects().object_count();
  const MigrationStats stats = f.Migrate(RocksteadyOptions{});

  EXPECT_GT(stats.bytes_pulled, 0u);
  EXPECT_GT(stats.records_pulled, 0u);
  EXPECT_GT(stats.pulls_completed, 1u);
  EXPECT_EQ(stats.rounds, 1u);

  // Ownership: coordinator maps the upper half to master 1.
  EXPECT_EQ(f.cluster.coordinator().OwnerOf(kTable, kMid), f.cluster.master(1).id());
  EXPECT_EQ(f.cluster.coordinator().OwnerOf(kTable, 0), f.cluster.master(0).id());

  // Source released its copy; target holds it.
  EXPECT_LT(f.cluster.master(0).objects().object_count(), on_source_before);
  EXPECT_EQ(f.cluster.master(0).objects().object_count() +
                f.cluster.master(1).objects().object_count(),
            f.num_records);

  // Lineage dependency registered during migration is dropped at the end.
  EXPECT_TRUE(f.cluster.coordinator().dependencies().empty());

  // The target committed its side logs into the main log.
  bool commit_record = false;
  f.cluster.master(1).objects().log().ForEachEntry(
      [&](LogRef, const LogEntryView& entry) {
        if (entry.type() == LogEntryType::kSideLogCommit) {
          commit_record = true;
        }
      });
  EXPECT_TRUE(commit_record);

  f.VerifyAllRecords(std::string(100, 'v'));
}

TEST(RocksteadyMigrationTest, LazyReplicationReplicatesAtEnd) {
  MigrationFixture f;
  const MigrationStats stats = f.Migrate(RocksteadyOptions{});
  EXPECT_GT(stats.rereplicated_bytes, 0u);
  // Side-log bytes landed on the target's backups.
  uint64_t held_for_target = 0;
  const ServerId target_id = f.cluster.master(1).id();
  for (size_t i = 0; i < f.cluster.num_masters(); i++) {
    for (const auto& segment :
         f.cluster.master(i).backup().GetRecoveryData(target_id, 0)) {
      held_for_target += segment.data.size();
    }
  }
  EXPECT_GE(held_for_target, stats.bytes_pulled);
}

TEST(RocksteadyMigrationTest, WritesDuringMigrationLandAtTarget) {
  MigrationFixture f;
  // Kick off the migration, then issue writes to migrating keys while it
  // runs (the sim interleaves them with pulls).
  bool done = false;
  StartRocksteadyMigration(&f.cluster, kTable, kMid, ~0ull, 0, 1, RocksteadyOptions{},
                           [&](const MigrationStats&) { done = true; });
  // Find keys in the migrating half.
  std::vector<std::string> migrating_keys;
  for (uint64_t i = 0; i < f.num_records && migrating_keys.size() < 20; i++) {
    const std::string key = Cluster::MakeKey(i, 30);
    if (HashKey(kTable, key) >= kMid) {
      migrating_keys.push_back(key);
    }
  }
  int writes_ok = 0;
  f.cluster.client(0).sim().After(50 * kMicrosecond, [&] {
    for (const auto& key : migrating_keys) {
      f.cluster.client(0).Write(kTable, key, "written-during-migration",
                                [&](Status s) { writes_ok += (s == Status::kOk); });
    }
  });
  f.cluster.Run();
  ASSERT_TRUE(done);
  EXPECT_EQ(writes_ok, static_cast<int>(migrating_keys.size()));
  // The fresh writes beat the migrated (older) copies.
  int fresh = 0;
  for (const auto& key : migrating_keys) {
    f.cluster.client(1).Read(kTable, key, [&](Status s, const std::string& v) {
      fresh += (s == Status::kOk && v == "written-during-migration");
    });
  }
  f.cluster.Run();
  EXPECT_EQ(fresh, static_cast<int>(migrating_keys.size()));
}

TEST(RocksteadyMigrationTest, PriorityPullServesEarlyReads) {
  MigrationFixture f(20'000);
  bool done = false;
  StartRocksteadyMigration(&f.cluster, kTable, kMid, ~0ull, 0, 1, RocksteadyOptions{},
                           [&](const MigrationStats&) { done = true; });
  // Immediately read a migrating key; it should complete long before the
  // bulk transfer ends, via PriorityPull + client retry.
  std::string hot_key;
  for (uint64_t i = 0; i < f.num_records; i++) {
    hot_key = Cluster::MakeKey(i, 30);
    if (HashKey(kTable, hot_key) >= kMid) {
      break;
    }
  }
  Tick read_completed_at = 0;
  Status read_status = Status::kInvalidState;
  f.cluster.client(0).sim().After(20 * kMicrosecond, [&] {
    f.cluster.client(0).Read(kTable, hot_key, [&](Status s, const std::string& v) {
      read_status = s;
      read_completed_at = f.cluster.client(0).sim().now();
      EXPECT_EQ(v.size(), 100u);
    });
  });
  Tick migration_end = 0;
  while (!done) {
    f.cluster.RunUntil(f.cluster.now() + kMillisecond);
    if (done) {
      migration_end = f.cluster.now();
    }
    ASSERT_LT(f.cluster.now(), 100 * static_cast<Tick>(kSecond));
  }
  f.cluster.Run();
  EXPECT_EQ(read_status, Status::kOk);
  EXPECT_GT(read_completed_at, 0u);
  EXPECT_LT(read_completed_at, migration_end / 2);
  EXPECT_GE(f.cluster.client(0).retry_later_retries(), 1u);
}

TEST(RocksteadyMigrationTest, AbsentKeyDuringMigrationIsNotFound) {
  MigrationFixture f;
  bool done = false;
  StartRocksteadyMigration(&f.cluster, kTable, kMid, ~0ull, 0, 1, RocksteadyOptions{},
                           [&](const MigrationStats&) { done = true; });
  // A key that hashes into the migrating range but was never written.
  std::string absent;
  for (uint64_t i = 0; i < 100'000; i++) {
    absent = "never-written-" + std::to_string(i);
    if (HashKey(kTable, absent) >= kMid) {
      break;
    }
  }
  Status status = Status::kOk;
  f.cluster.client(0).sim().After(20 * kMicrosecond, [&] {
    f.cluster.client(0).Read(kTable, absent,
                             [&](Status s, const std::string&) { status = s; });
  });
  f.cluster.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(status, Status::kObjectNotFound);
}

TEST(RocksteadyMigrationTest, NoPriorityPullsStillCorrect) {
  MigrationFixture f;
  RocksteadyOptions options;
  options.mode = MigrationMode::kNoPriorityPulls;
  const MigrationStats stats = f.Migrate(options);
  EXPECT_EQ(stats.priority_pull_batches, 0u);
  f.VerifyAllRecords(std::string(100, 'v'));
}

TEST(RocksteadyMigrationTest, SourceOwnsModeUsesTwoRoundsAndIsCorrect) {
  MigrationFixture f;
  RocksteadyOptions options;
  options.mode = MigrationMode::kSourceOwns;
  const MigrationStats stats = f.Migrate(options);
  EXPECT_EQ(stats.rounds, 2u);  // Full pass + post-freeze delta.
  EXPECT_GT(stats.rereplicated_bytes, 0u);  // Synchronous re-replication.
  EXPECT_EQ(f.cluster.coordinator().OwnerOf(kTable, kMid), f.cluster.master(1).id());
  f.VerifyAllRecords(std::string(100, 'v'));
}

TEST(RocksteadyMigrationTest, SourceOwnsPreservesWritesDuringRoundOne) {
  MigrationFixture f;
  RocksteadyOptions options;
  options.mode = MigrationMode::kSourceOwns;
  bool done = false;
  StartRocksteadyMigration(&f.cluster, kTable, kMid, ~0ull, 0, 1, options,
                           [&](const MigrationStats&) { done = true; });
  // Overwrite a migrating key while round 1 runs (source still owns it).
  std::string key;
  for (uint64_t i = 0; i < f.num_records; i++) {
    key = Cluster::MakeKey(i, 30);
    if (HashKey(kTable, key) >= kMid) {
      break;
    }
  }
  Status write_status = Status::kInvalidState;
  f.cluster.client(0).sim().After(30 * kMicrosecond, [&] {
    f.cluster.client(0).Write(kTable, key, "updated-mid-precopy",
                              [&](Status s) { write_status = s; });
  });
  f.cluster.Run();
  ASSERT_TRUE(done);
  EXPECT_EQ(write_status, Status::kOk);
  // The delta round carried the update to the target.
  std::string value;
  f.cluster.client(1).Read(kTable, key, [&](Status, const std::string& v) { value = v; });
  f.cluster.Run();
  EXPECT_EQ(value, "updated-mid-precopy");
}

TEST(RocksteadyMigrationTest, SyncPriorityPullsServeReads) {
  MigrationFixture f;
  RocksteadyOptions options;
  options.sync_priority_pulls = true;
  bool done = false;
  StartRocksteadyMigration(&f.cluster, kTable, kMid, ~0ull, 0, 1, options,
                           [&](const MigrationStats&) { done = true; });
  std::string key;
  for (uint64_t i = 0; i < f.num_records; i++) {
    key = Cluster::MakeKey(i, 30);
    if (HashKey(kTable, key) >= kMid) {
      break;
    }
  }
  Status status = Status::kInvalidState;
  std::string value;
  f.cluster.client(0).sim().After(20 * kMicrosecond, [&] {
    f.cluster.client(0).Read(kTable, key, [&](Status s, const std::string& v) {
      status = s;
      value = v;
    });
  });
  f.cluster.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(status, Status::kOk);
  EXPECT_EQ(value.size(), 100u);
}

TEST(RocksteadyMigrationTest, SyncReplicationAblationSlowsTransfer) {
  // §4.2: lineage/deferred replication migrates faster than synchronous
  // re-replication because replication bytes leave the migration fast path.
  // The effect needs a worker-constrained target (the paper's target is
  // absorbing half the cluster load); compare transfer (last-pull) times on
  // a small CoreSet.
  auto run = [](bool lazy) {
    ClusterConfig config = TestCluster();
    config.master.num_workers = 2;
    Cluster cluster(config);
    EnableMigration(&cluster);
    cluster.CreateTable(kTable, 0);
    cluster.LoadTable(kTable, 20'000, 30, 100);
    RocksteadyOptions options;
    options.lazy_rereplication = lazy;
    std::optional<MigrationStats> result;
    StartRocksteadyMigration(&cluster, kTable, kMid, ~0ull, 0, 1, options,
                             [&](const MigrationStats& stats) { result = stats; });
    cluster.Run();
    EXPECT_TRUE(result.has_value());
    const MigrationStats stats = result.value_or(MigrationStats{});
    return static_cast<double>(stats.bytes_pulled) /
           static_cast<double>(stats.last_pull_time - stats.start_time);
  };
  const double lazy_rate = run(true);
  const double sync_rate = run(false);
  EXPECT_GT(lazy_rate, sync_rate * 1.1);
}

TEST(RocksteadyMigrationTest, Deterministic) {
  auto run = [] {
    MigrationFixture f(3'000);
    const MigrationStats stats = f.Migrate(RocksteadyOptions{});
    return std::make_tuple(stats.end_time - stats.start_time, stats.bytes_pulled,
                           stats.pulls_completed);
  };
  EXPECT_EQ(run(), run());
}


TEST(RocksteadyMigrationTest, ConcurrentMigrationsToDistinctTargets) {
  // Two tablets leave the same source for two different targets at once.
  MigrationFixture f;
  f.cluster.coordinator().SplitTablet(kTable, 1ull << 62);
  std::optional<MigrationStats> first;
  std::optional<MigrationStats> second;
  StartRocksteadyMigration(&f.cluster, kTable, 1ull << 62, kMid - 1, 0, 1, RocksteadyOptions{},
                           [&](const MigrationStats& s) { first = s; });
  StartRocksteadyMigration(&f.cluster, kTable, kMid, ~0ull, 0, 2, RocksteadyOptions{},
                           [&](const MigrationStats& s) { second = s; });
  f.cluster.Run();
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(f.cluster.coordinator().OwnerOf(kTable, 1ull << 62), f.cluster.master(1).id());
  EXPECT_EQ(f.cluster.coordinator().OwnerOf(kTable, kMid), f.cluster.master(2).id());
  f.VerifyAllRecords(std::string(100, 'v'));
}

TEST(RocksteadyMigrationTest, ChainedMigrationsKeepDataIntact) {
  // A tablet hops source -> 1 -> 2 -> back to 0 (the elastic-scaling path).
  MigrationFixture f(3'000);
  auto hop = [&](size_t from, size_t to) {
    std::optional<MigrationStats> stats;
    StartRocksteadyMigration(&f.cluster, kTable, kMid, ~0ull, from, to, RocksteadyOptions{},
                             [&](const MigrationStats& s) { stats = s; });
    f.cluster.Run();
    ASSERT_TRUE(stats.has_value());
  };
  hop(0, 1);
  hop(1, 2);
  hop(2, 0);
  EXPECT_EQ(f.cluster.coordinator().OwnerOf(kTable, kMid), f.cluster.master(0).id());
  EXPECT_TRUE(f.cluster.coordinator().dependencies().empty());
  f.VerifyAllRecords(std::string(100, 'v'));
}

TEST(RocksteadyMigrationTest, DeleteOfUnarrivedKeyStaysDeleted) {
  // The fuzz-discovered bug as a targeted regression test: delete a key at
  // the target before its (older) copy arrives via bulk pulls.
  MigrationFixture f(20'000);
  bool done = false;
  StartRocksteadyMigration(&f.cluster, kTable, kMid, ~0ull, 0, 1, RocksteadyOptions{},
                           [&](const MigrationStats&) { done = true; });
  std::string victim;
  for (uint64_t i = f.num_records; i-- > 0;) {
    victim = Cluster::MakeKey(i, 30);
    if (HashKey(kTable, victim) >= kMid) {
      break;  // Likely to be pulled late (no ordering guarantee, but the
              // tombstone must protect it regardless).
    }
  }
  Status remove_status = Status::kInvalidState;
  f.cluster.client(0).sim().After(20 * kMicrosecond, [&] {
    f.cluster.client(0).Remove(kTable, victim, [&](Status s) { remove_status = s; });
  });
  f.cluster.Run();
  ASSERT_TRUE(done);
  EXPECT_EQ(remove_status, Status::kOk);
  Status read_status = Status::kOk;
  f.cluster.client(1).Read(kTable, victim,
                           [&](Status s, const std::string&) { read_status = s; });
  f.cluster.Run();
  EXPECT_EQ(read_status, Status::kObjectNotFound);
}

// ------------------------------------------------------------- Baseline.

TEST(BaselineMigrationTest, MovesAllData) {
  MigrationFixture f;
  std::optional<BaselineStats> result;
  StartBaselineMigration(&f.cluster, kTable, kMid, ~0ull, 0, 1, BaselineMigrateOptions{},
                         [&](const BaselineStats& stats) { result = stats; });
  f.cluster.Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_GT(result->bytes_transferred, 0u);
  EXPECT_EQ(f.cluster.coordinator().OwnerOf(kTable, kMid), f.cluster.master(1).id());
  f.VerifyAllRecords(std::string(100, 'v'));
}

TEST(BaselineMigrationTest, OwnershipStaysAtSourceUntilEnd) {
  MigrationFixture f(20'000);
  bool done = false;
  StartBaselineMigration(&f.cluster, kTable, kMid, ~0ull, 0, 1, BaselineMigrateOptions{},
                         [&](const BaselineStats&) { done = true; });
  // Mid-migration, the source still owns and serves the migrating range.
  std::string key;
  for (uint64_t i = 0; i < f.num_records; i++) {
    key = Cluster::MakeKey(i, 30);
    if (HashKey(kTable, key) >= kMid) {
      break;
    }
  }
  Status status = Status::kInvalidState;
  f.cluster.AtSafePoint(f.cluster.now() + 50 * kMicrosecond, [&] {
    ASSERT_FALSE(done);  // Baseline is slow; it cannot have finished.
    EXPECT_EQ(f.cluster.coordinator().OwnerOf(kTable, kMid), f.cluster.master(0).id());
    f.cluster.client(0).Read(kTable, key,
                             [&](Status s, const std::string&) { status = s; });
  });
  f.cluster.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(status, Status::kOk);
}

TEST(BaselineMigrationTest, SkipKnobsIncreaseRate) {
  // Figure 5's ladder: each skipped phase strictly increases migration rate.
  auto run = [](BaselineMigrateOptions options) {
    MigrationFixture f(20'000);
    std::optional<BaselineStats> result;
    StartBaselineMigration(&f.cluster, kTable, kMid, ~0ull, 0, 1, options,
                           [&](const BaselineStats& stats) { result = stats; });
    f.cluster.Run();
    EXPECT_TRUE(result.has_value());
    return result.value_or(BaselineStats{}).RateMBps();
  };
  const double full = run({});
  const double no_rerepl = run({.skip_rereplication = true});
  const double no_replay = run({.skip_rereplication = true, .skip_replay = true});
  const double no_tx =
      run({.skip_rereplication = true, .skip_replay = true, .skip_tx = true});
  const double no_copy = run(
      {.skip_rereplication = true, .skip_replay = true, .skip_tx = true, .skip_copy = true});
  EXPECT_GT(no_rerepl, full * 1.15);
  EXPECT_GT(no_replay, no_rerepl * 1.5);
  EXPECT_GT(no_tx, no_replay);
  EXPECT_GT(no_copy, no_tx * 1.2);
}

TEST(BaselineMigrationTest, CapturesWritesDuringScan) {
  MigrationFixture f(20'000);
  bool done = false;
  StartBaselineMigration(&f.cluster, kTable, kMid, ~0ull, 0, 1, BaselineMigrateOptions{},
                         [&](const BaselineStats&) { done = true; });
  std::string key;
  for (uint64_t i = 0; i < f.num_records; i++) {
    key = Cluster::MakeKey(i, 30);
    if (HashKey(kTable, key) >= kMid) {
      break;
    }
  }
  Status write_status = Status::kInvalidState;
  f.cluster.client(0).sim().After(100 * kMicrosecond, [&] {
    f.cluster.client(0).Write(kTable, key, "updated-during-baseline",
                              [&](Status s) { write_status = s; });
  });
  f.cluster.Run();
  ASSERT_TRUE(done);
  ASSERT_EQ(write_status, Status::kOk);
  std::string value;
  f.cluster.client(1).Read(kTable, key, [&](Status, const std::string& v) { value = v; });
  f.cluster.Run();
  EXPECT_EQ(value, "updated-during-baseline");
}

}  // namespace
}  // namespace rocksteady
