// Randomized model-checking tests: drive a cluster with random operations
// (reads, writes, removes, migrations, crashes) while maintaining a
// reference map of expected state, and verify the cluster always converges
// to the reference. Complements the targeted integration tests with
// coverage of interleavings nobody thought to write down.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>

#include "src/cluster/cluster.h"
#include "src/common/audit.h"
#include "src/migration/rocksteady_target.h"

namespace rocksteady {
namespace {

constexpr TableId kTable = 1;

ClusterConfig FuzzCluster(uint64_t seed) {
  ClusterConfig config;
  config.num_masters = 5;
  config.num_clients = 3;
  config.seed = seed;
  config.master.hash_table_log2_buckets = 14;
  config.master.segment_size = 64 * 1024;
  return config;
}

// One fuzz episode: random ops interleaved with a random migration; verify
// final state matches the reference exactly.
class FuzzEpisode {
 public:
  explicit FuzzEpisode(uint64_t seed) : cluster_(FuzzCluster(seed)), seed_(seed) {
    EnableMigration(&cluster_);
    cluster_.CreateTable(kTable, 0);
  }

  void Run(int operations, bool with_migration, bool with_crash) {
    Random rng(seed_ * 7 + 13);
    // Seed some initial data.
    for (int i = 0; i < 200; i++) {
      DoWrite(rng);
    }
    cluster_.Run();

    std::optional<KeyHash> migrate_split;
    if (with_migration) {
      migrate_split = 1ull << 63;
      StartRocksteadyMigration(&cluster_, kTable, *migrate_split, ~0ull, 0, 1,
                               RocksteadyOptions{}, nullptr);
    }

    for (int op = 0; op < operations; op++) {
      const uint64_t dice = rng.Uniform(100);
      if (dice < 55) {
        DoWrite(rng);
      } else if (dice < 75) {
        DoRemove(rng);
      } else {
        DoCheckedRead(rng);
      }
      if (op % 16 == 15) {
        // Let some operations complete; keeps interleavings interesting
        // without unbounded outstanding state.
        cluster_.RunUntil(cluster_.now() + 50 * kMicrosecond);
        AuditAll("mid-episode");
      }
    }
    cluster_.Run();
    AuditAll("after operations drained");

    if (with_crash) {
      // Crash a random *backup-only* participant or the migration source is
      // risky for the reference (acked-but-reverted is impossible in our
      // model: acks imply replication). Crash master 2 (never a migration
      // endpoint here) and recover.
      cluster_.master(2).Crash();
      bool recovered = false;
      cluster_.coordinator().HandleCrash(cluster_.master(2).id(), [&] { recovered = true; });
      cluster_.Run();
      ASSERT_TRUE(recovered);
    }

    AuditAll("before convergence check");
    VerifyConverged();
  }

 private:
  std::string KeyFor(uint64_t id) const { return Cluster::MakeKey(id, 30); }

  // Invariant audit of every master's store plus the coordinator's map;
  // the fuzzer's random interleavings are exactly where a broken invariant
  // would first show up.
  void AuditAll(const char* when) {
    AuditReport report;
    cluster_.AuditInvariants(&report);
    ASSERT_TRUE(report.ok()) << when << ":\n" << report.Summary();
  }

  void DoWrite(Random& rng) {
    const uint64_t id = rng.Uniform(500);
    const std::string key = KeyFor(id);
    const std::string value = "v" + std::to_string(rng.Next() % 100000);
    auto* expected = &reference_;
    cluster_.client(rng.Uniform(cluster_.num_clients()))
        .Write(kTable, key, value, [key, value, expected](Status status) {
          ASSERT_EQ(status, Status::kOk);
          // Completion order is commit order in this single-threaded sim.
          (*expected)[key] = value;
        });
  }

  void DoRemove(Random& rng) {
    const uint64_t id = rng.Uniform(500);
    const std::string key = KeyFor(id);
    auto* expected = &reference_;
    cluster_.client(rng.Uniform(cluster_.num_clients()))
        .Remove(kTable, key, [key, expected](Status status) {
          ASSERT_TRUE(status == Status::kOk || status == Status::kObjectNotFound);
          expected->erase(key);
        });
  }

  void DoCheckedRead(Random& rng) {
    const uint64_t id = rng.Uniform(500);
    const std::string key = KeyFor(id);
    cluster_.client(rng.Uniform(cluster_.num_clients()))
        .Read(kTable, key, [](Status status, const std::string&) {
          ASSERT_TRUE(status == Status::kOk || status == Status::kObjectNotFound);
        });
  }

  void VerifyConverged() {
    int mismatches = 0;
    for (uint64_t id = 0; id < 500; id++) {
      const std::string key = KeyFor(id);
      const auto it = reference_.find(key);
      std::optional<std::string> expected;
      if (it != reference_.end()) {
        expected = it->second;
      }
      cluster_.client(0).Read(
          kTable, key, [&mismatches, expected](Status status, const std::string& value) {
            if (!expected.has_value()) {
              if (status != Status::kObjectNotFound) {
                mismatches++;
              }
            } else if (status != Status::kOk || value != *expected) {
              mismatches++;
            }
          });
      if (id % 32 == 31) {
        cluster_.Run();
      }
    }
    cluster_.Run();
    EXPECT_EQ(mismatches, 0);
  }

  Cluster cluster_;
  uint64_t seed_;
  std::map<std::string, std::string> reference_;
};

class FuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzTest, RandomOpsConverge) {
  FuzzEpisode episode(GetParam());
  episode.Run(600, /*with_migration=*/false, /*with_crash=*/false);
}

TEST_P(FuzzTest, RandomOpsDuringMigrationConverge) {
  FuzzEpisode episode(GetParam());
  episode.Run(600, /*with_migration=*/true, /*with_crash=*/false);
}

TEST_P(FuzzTest, RandomOpsThenCrashConverge) {
  FuzzEpisode episode(GetParam());
  episode.Run(400, /*with_migration=*/true, /*with_crash=*/true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest, ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace rocksteady
