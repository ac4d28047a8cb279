// Tests for the workload module: YCSB op mix and skew, and the open-loop
// client load generator (arrival process, backlog behaviour, latency
// accounting).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "bench/client_history.h"
#include "src/cluster/cluster.h"
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

// A ClientHistory driving each client of `cluster` with YCSB ops of
// `ycsb`'s mix over the loaded keys of table 1.
ClientHistories StartHistories(Cluster& cluster, const YcsbConfig& ycsb, Tick stop,
                               const ClientHistory::OpGap& gap, size_t max_in_flight) {
  return StartClientHistories(
      cluster, 1, stop,
      [workload = std::make_shared<const YcsbWorkload>(ycsb)](Random& rng, Tick) {
        return workload->NextOp(rng);
      },
      gap, max_in_flight);
}

ClusterConfig OneClientCluster() {
  ClusterConfig config;
  config.num_masters = 4;
  config.num_clients = 1;
  config.master.hash_table_log2_buckets = 12;
  return config;
}

TEST(ClientHistoryTest, OpenLoopOffersConfiguredRate) {
  Cluster cluster(OneClientCluster());
  cluster.CreateTable(1, 0);
  cluster.LoadTable(1, 1'000, 30, 100);
  YcsbConfig ycsb = YcsbConfig::WorkloadC();  // Reads only.
  ycsb.num_records = 1'000;
  const ClientHistories histories = StartHistories(cluster, ycsb, kSecond, PoissonGap(50'000), 8);
  cluster.Run();
  // Poisson arrivals at 50K/s for 1 s: within a few percent.
  EXPECT_NEAR(static_cast<double>(histories[0]->ops().size()), 50'000.0, 2'500.0);
  const OpCounts counts = CountOps(histories);
  EXPECT_EQ(counts.reads_failed, 0u);
  EXPECT_EQ(histories[0]->backlog(), 0u);
}

TEST(ClientHistoryTest, BacklogFormsWhenServerSlow) {
  // Offer far more load than one server can take; the client must backlog
  // (not drop), and sojourn latency must reflect the queueing.
  ClusterConfig config = OneClientCluster();
  config.master.num_workers = 1;
  Cluster cluster(config);
  cluster.CreateTable(1, 0);
  cluster.LoadTable(1, 100, 30, 100);
  YcsbConfig ycsb = YcsbConfig::WorkloadC();
  ycsb.num_records = 100;
  const ClientHistories histories =
      StartHistories(cluster, ycsb, kSecond / 10, PoissonGap(2'000'000), /*max_in_flight=*/4);
  cluster.RunUntil(kSecond / 10);
  EXPECT_GT(histories[0]->backlog(), 100u);
  cluster.Run();  // Drain.
  EXPECT_EQ(histories[0]->backlog(), 0u);
  const OpCounts counts = CountOps(histories);
  EXPECT_EQ(histories[0]->ops().size(), counts.ok() + counts.failed());
  // Sojourn latency, from the intended arrival, far exceeds service latency
  // under overload.
  LatencyTimeline reads(kSecond / 10, 10);
  RecordLatencies(histories, &reads);
  EXPECT_GT(reads.Total().Percentile(0.99), 100'000u);
}

TEST(ClientHistoryTest, IssuedIsTheArrivalNotTheDequeue) {
  // One op in flight at a time, arrivals every microsecond: reads take
  // longer than that, so most ops wait in the backlog. Each op's `issued`
  // is still its arrival, not the moment it left the backlog.
  Cluster cluster(OneClientCluster());
  cluster.CreateTable(1, 0);
  cluster.LoadTable(1, 100, 30, 100);
  YcsbConfig ycsb = YcsbConfig::WorkloadC();
  ycsb.num_records = 100;
  const ClientHistories histories = StartHistories(
      cluster, ycsb, kMillisecond, [](Random&, Tick) { return kMicrosecond; },
      /*max_in_flight=*/1);
  cluster.Run();
  const std::vector<OpRecord>& ops = histories[0]->ops();
  ASSERT_EQ(ops.size(), 999u);
  size_t waited = 0;
  for (size_t i = 0; i < ops.size(); i++) {
    EXPECT_EQ(ops[i].issued, static_cast<Tick>(i + 1) * kMicrosecond) << "op " << i;
    waited += i > 0 && ops[i].issued < ops[i - 1].completed;
  }
  EXPECT_GT(waited, ops.size() / 2);
}

TEST(ClientHistoryTest, WritesCountedSeparately) {
  Cluster cluster(OneClientCluster());
  cluster.CreateTable(1, 0);
  cluster.LoadTable(1, 1'000, 30, 100);
  YcsbConfig ycsb = YcsbConfig::WorkloadA();  // 50/50.
  ycsb.num_records = 1'000;
  const ClientHistories histories =
      StartHistories(cluster, ycsb, kSecond / 2, PoissonGap(20'000), 8);
  cluster.Run();
  LatencyTimeline reads(kSecond, 2);
  LatencyTimeline writes(kSecond, 2);
  for (const OpRecord& op : histories[0]->ops()) {
    if (op.ok()) {
      (op.is_read ? reads : writes).Record(op.completed, op.completed - op.issued);
    }
  }
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
