// Tests for the workload module: YCSB op mix and skew, open-loop client
// actors (arrival process, backlog behaviour, latency accounting).
#include <gtest/gtest.h>

#include <map>

#include "src/cluster/cluster.h"
#include "src/workload/client_actor.h"
#include "src/workload/ycsb.h"

namespace rocksteady {
namespace {

TEST(YcsbTest, ReadFractionRespected) {
  YcsbConfig config = YcsbConfig::WorkloadB();
  config.num_records = 10'000;
  YcsbWorkload workload(config);
  Random rng(3);
  int reads = 0;
  constexpr int kOps = 100'000;
  for (int i = 0; i < kOps; i++) {
    reads += workload.NextOp(rng).is_read;
  }
  EXPECT_NEAR(static_cast<double>(reads) / kOps, 0.95, 0.01);
}

TEST(YcsbTest, WorkloadVariants) {
  EXPECT_DOUBLE_EQ(YcsbConfig::WorkloadA().read_fraction, 0.5);
  EXPECT_DOUBLE_EQ(YcsbConfig::WorkloadB().read_fraction, 0.95);
  EXPECT_DOUBLE_EQ(YcsbConfig::WorkloadC().read_fraction, 1.0);
}

TEST(YcsbTest, KeysAreValidAndSkewed) {
  YcsbConfig config = YcsbConfig::WorkloadB();
  config.num_records = 1'000;
  YcsbWorkload workload(config);
  Random rng(5);
  std::map<std::string, int> counts;
  for (int i = 0; i < 50'000; i++) {
    const auto op = workload.NextOp(rng);
    EXPECT_EQ(op.key.size(), config.key_length);
    counts[op.key]++;
  }
  // Every generated key is one of the table's keys.
  for (const auto& [key, count] : counts) {
    bool found = false;
    for (uint64_t id = 0; id < config.num_records; id++) {
      if (workload.KeyAt(id) == key) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << key;
    if (counts.size() > 50) {
      break;  // Spot-check a few; the loop above is quadratic.
    }
  }
  // Zipf 0.99: the hottest key gets far more than the uniform share.
  int hottest = 0;
  for (const auto& [key, count] : counts) {
    hottest = std::max(hottest, count);
  }
  EXPECT_GT(hottest, 50'000 / 1'000 * 10);
}

TEST(ClientActorTest, OpenLoopOffersConfiguredRate) {
  ClusterConfig config;
  config.num_masters = 4;
  config.num_clients = 1;
  config.master.hash_table_log2_buckets = 12;
  Cluster cluster(config);
  cluster.CreateTable(1, 0);
  cluster.LoadTable(1, 1'000, 30, 100);
  YcsbConfig ycsb = YcsbConfig::WorkloadC();  // Reads only.
  ycsb.num_records = 1'000;
  YcsbWorkload workload(ycsb);
  ClientActorConfig actor_config;
  actor_config.ops_per_second = 50'000;
  actor_config.stop_time = kSecond;
  ClientActor actor(1, &cluster.client(0), &workload, actor_config);
  actor.Start();
  cluster.Run();
  // Poisson arrivals at 50K/s for 1 s: within a few percent.
  EXPECT_NEAR(static_cast<double>(actor.issued()), 50'000.0, 2'500.0);
  EXPECT_EQ(actor.failed(), 0u);
  EXPECT_EQ(actor.backlog(), 0u);
}

TEST(ClientActorTest, BacklogFormsWhenServerSlow) {
  // Offer far more load than one server can take; the actor must backlog
  // (not drop), and sojourn latency must reflect the queueing.
  ClusterConfig config;
  config.num_masters = 4;
  config.num_clients = 1;
  config.master.num_workers = 1;
  config.master.hash_table_log2_buckets = 12;
  Cluster cluster(config);
  cluster.CreateTable(1, 0);
  cluster.LoadTable(1, 100, 30, 100);
  YcsbConfig ycsb = YcsbConfig::WorkloadC();
  ycsb.num_records = 100;
  YcsbWorkload workload(ycsb);
  LatencyTimeline reads(kSecond / 10, 10);
  ClientActorConfig actor_config;
  actor_config.ops_per_second = 2'000'000;  // >> capacity.
  actor_config.max_outstanding = 4;
  actor_config.stop_time = kSecond / 10;
  ClientActor actor(1, &cluster.client(0), &workload, actor_config);
  actor.set_read_latency(&reads);
  actor.Start();
  cluster.RunUntil(kSecond / 10);
  EXPECT_GT(actor.backlog(), 100u);
  cluster.Run();  // Drain.
  EXPECT_EQ(actor.backlog(), 0u);
  EXPECT_EQ(actor.issued(), actor.completed() + actor.failed());
  // Sojourn latency far exceeds service latency under overload.
  EXPECT_GT(reads.Total().Percentile(0.99), 100'000u);
}

TEST(ClientActorTest, WritesCountedSeparately) {
  ClusterConfig config;
  config.num_masters = 4;
  config.num_clients = 1;
  config.master.hash_table_log2_buckets = 12;
  Cluster cluster(config);
  cluster.CreateTable(1, 0);
  cluster.LoadTable(1, 1'000, 30, 100);
  YcsbConfig ycsb = YcsbConfig::WorkloadA();  // 50/50.
  ycsb.num_records = 1'000;
  YcsbWorkload workload(ycsb);
  LatencyTimeline reads(kSecond, 2);
  LatencyTimeline writes(kSecond, 2);
  ClientActorConfig actor_config;
  actor_config.ops_per_second = 20'000;
  actor_config.stop_time = kSecond / 2;
  ClientActor actor(1, &cluster.client(0), &workload, actor_config);
  actor.set_read_latency(&reads);
  actor.set_write_latency(&writes);
  actor.Start();
  cluster.Run();
  const uint64_t total_reads = reads.Total().count();
  const uint64_t total_writes = writes.Total().count();
  EXPECT_GT(total_reads, 0u);
  EXPECT_GT(total_writes, 0u);
  EXPECT_NEAR(static_cast<double>(total_reads) / (total_reads + total_writes), 0.5, 0.05);
  // Durable writes are several times slower than reads.
  EXPECT_GT(writes.Total().Percentile(0.5), reads.Total().Percentile(0.5) * 3 / 2);
}

}  // namespace
}  // namespace rocksteady
