// End-to-end cluster tests: reads/writes through the full stack (client ->
// dispatch -> worker -> log -> replication -> backups), multigets, index
// scans, tablet map refresh, and baseline latency calibration against the
// paper's Table 1 numbers.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "bench/client_history.h"
#include "src/cluster/cluster.h"

namespace rocksteady {
namespace {

ClusterConfig SmallCluster(int masters = 4, int clients = 1) {
  ClusterConfig config;
  config.num_masters = masters;
  config.num_clients = clients;
  config.master.hash_table_log2_buckets = 14;
  config.master.segment_size = 64 * 1024;
  return config;
}

TEST(ClusterTest, WriteThenReadThroughRpc) {
  Cluster cluster(SmallCluster());
  cluster.CreateTable(1, 0);
  Status write_status = Status::kInvalidState;
  cluster.client(0).Write(1, "hello", "world", [&](Status s) { write_status = s; });
  cluster.Run();
  EXPECT_EQ(write_status, Status::kOk);

  std::string value;
  Status read_status = Status::kInvalidState;
  cluster.client(0).Read(1, "hello", [&](Status s, const std::string& v) {
    read_status = s;
    value = v;
  });
  cluster.Run();
  EXPECT_EQ(read_status, Status::kOk);
  EXPECT_EQ(value, "world");
}

TEST(ClusterTest, ReadMissingKey) {
  Cluster cluster(SmallCluster());
  cluster.CreateTable(1, 0);
  Status status = Status::kOk;
  cluster.client(0).Read(1, "ghost", [&](Status s, const std::string&) { status = s; });
  cluster.Run();
  EXPECT_EQ(status, Status::kObjectNotFound);
}

TEST(ClusterTest, UnloadedReadLatencyNearSixMicroseconds) {
  // §2: "End-to-end read and durable write operations take just 6 us and
  // 15 us respectively on our hardware."
  Cluster cluster(SmallCluster());
  cluster.CreateTable(1, 0);
  cluster.LoadTable(1, 100, 30, 100);
  // Warm the tablet cache first.
  cluster.client(0).Read(1, Cluster::MakeKey(0, 30), [](Status, const std::string&) {});
  cluster.Run();
  const Tick start = cluster.now();
  Tick read_done = 0;
  cluster.client(0).Read(1, Cluster::MakeKey(1, 30),
                         [&](Status s, const std::string& v) {
                           EXPECT_EQ(s, Status::kOk);
                           EXPECT_EQ(v.size(), 100u);
                           read_done = cluster.client(0).sim().now();
                         });
  cluster.Run();
  const double read_us = static_cast<double>(read_done - start) / 1'000.0;
  EXPECT_GT(read_us, 3.0);
  EXPECT_LT(read_us, 9.0);

  const Tick wstart = cluster.now();
  Tick write_done = 0;
  cluster.client(0).Write(1, Cluster::MakeKey(1, 30), std::string(100, 'x'),
                          [&](Status s) {
                            EXPECT_EQ(s, Status::kOk);
                            write_done = cluster.client(0).sim().now();
                          });
  cluster.Run();
  const double write_us = static_cast<double>(write_done - wstart) / 1'000.0;
  EXPECT_GT(write_us, 8.0);
  EXPECT_LT(write_us, 22.0);
}

TEST(ClusterTest, WritesAreReplicatedToBackups) {
  Cluster cluster(SmallCluster());
  cluster.CreateTable(1, 0);
  int completed = 0;
  for (int i = 0; i < 20; i++) {
    cluster.client(0).Write(1, "key" + std::to_string(i), "value", [&](Status s) {
      EXPECT_EQ(s, Status::kOk);
      completed++;
    });
  }
  cluster.Run();
  EXPECT_EQ(completed, 20);
  // Three backups each hold the replicated bytes.
  uint64_t replica_bytes = 0;
  for (size_t i = 1; i < cluster.num_masters(); i++) {
    replica_bytes += cluster.master(i).backup().bytes_stored();
  }
  EXPECT_GT(replica_bytes, 20u * 45u * 3u / 2u);
}

TEST(ClusterTest, LoadTableDistributesByHash) {
  Cluster cluster(SmallCluster());
  // Table split across two masters at the hash midpoint.
  cluster.CreateTable(1, 0);
  ASSERT_EQ(cluster.coordinator().SplitTablet(1, 1ull << 63), Status::kOk);
  // Audit-safe reassignment: installs the upper half on master 1, repoints
  // the map, and drops master 0's mirror. Lower half stays on master 0.
  ASSERT_EQ(cluster.coordinator().ReassignTablet(1, 1ull << 63, ~0ull, cluster.master(1).id()),
            Status::kOk);
  cluster.LoadTable(1, 1'000, 30, 100);
  const uint64_t on0 = cluster.master(0).objects().object_count();
  const uint64_t on1 = cluster.master(1).objects().object_count();
  EXPECT_EQ(on0 + on1, 1'000u);
  EXPECT_GT(on0, 350u);
  EXPECT_GT(on1, 350u);

  // Every record readable through the data path regardless of owner.
  int ok = 0;
  for (int i = 0; i < 50; i++) {
    cluster.client(0).Read(1, Cluster::MakeKey(static_cast<uint64_t>(i * 17), 30),
                           [&](Status s, const std::string&) { ok += (s == Status::kOk); });
  }
  cluster.Run();
  EXPECT_EQ(ok, 50);
}

TEST(ClusterTest, MultiGetSpansServers) {
  Cluster cluster(SmallCluster());
  cluster.CreateTable(1, 0);
  cluster.coordinator().SplitTablet(1, 1ull << 63);
  cluster.coordinator().ReassignTablet(1, 1ull << 63, ~0ull, cluster.master(1).id());
  cluster.LoadTable(1, 200, 30, 100);

  std::vector<std::string> keys;
  for (int i = 0; i < 7; i++) {
    keys.push_back(Cluster::MakeKey(static_cast<uint64_t>(i * 29), 30));
  }
  Status status = Status::kInvalidState;
  cluster.client(0).MultiGet(1, keys, [&](Status s) { status = s; });
  cluster.Run();
  EXPECT_EQ(status, Status::kOk);
}

TEST(ClusterTest, IndexScanEndToEnd) {
  Cluster cluster(SmallCluster());
  cluster.CreateTable(1, 0);
  cluster.coordinator().CreateIndex(1, 1, {{.start_key = "", .end_key = "", .owner = 2}});

  // Write records with secondary keys through the data path so the index
  // updates flow through kIndexInsert.
  int writes_done = 0;
  for (int i = 0; i < 50; i++) {
    char secondary[16];
    std::snprintf(secondary, sizeof(secondary), "name%04d", i);
    cluster.client(0).Write(1, "pk" + std::to_string(i), "record-value",
                            [&](Status s) {
                              EXPECT_EQ(s, Status::kOk);
                              writes_done++;
                            },
                            secondary);
  }
  cluster.Run();
  ASSERT_EQ(writes_done, 50);

  Status status = Status::kInvalidState;
  cluster.client(0).IndexScan(1, 1, "name0010", 4, [&](Status s) { status = s; });
  cluster.Run();
  EXPECT_EQ(status, Status::kOk);
}

TEST(ClusterTest, ClientRefreshAfterOwnershipChange) {
  Cluster cluster(SmallCluster());
  cluster.CreateTable(1, 0);
  cluster.LoadTable(1, 100, 30, 100);
  // Client caches the initial map.
  Status status = Status::kInvalidState;
  cluster.client(0).Read(1, Cluster::MakeKey(5, 30),
                         [&](Status s, const std::string&) { status = s; });
  cluster.Run();
  ASSERT_EQ(status, Status::kOk);

  // Move the whole table to master 1 behind the client's back (data copied
  // directly; this tests the kWrongServer refresh path, not migration).
  auto& src = cluster.master(0).objects();
  auto& dst = cluster.master(1).objects();
  src.log().ForEachEntry([&](LogRef, const LogEntryView& entry) {
    if (entry.type() == LogEntryType::kObject) {
      dst.Replay(entry, nullptr);
    }
  });
  dst.tablets().Add(Tablet{1, 0, ~0ull, TabletState::kNormal});
  src.tablets().Remove(1, 0, ~0ull);
  cluster.coordinator().UpdateOwnership(1, 0, ~0ull, cluster.master(1).id());

  status = Status::kInvalidState;
  cluster.client(0).Read(1, Cluster::MakeKey(5, 30),
                         [&](Status s, const std::string&) { status = s; });
  cluster.Run();
  EXPECT_EQ(status, Status::kOk);
  EXPECT_GE(cluster.client(0).wrong_server_retries(), 1u);
}

TEST(ClusterTest, YcsbActorDrivesLoad) {
  Cluster cluster(SmallCluster(4, 2));
  cluster.CreateTable(1, 0);
  cluster.LoadTable(1, 10'000, 30, 100);
  const ClientHistories histories =
      StartClientHistories(cluster, 1, kSecond, YcsbBChoice(10'000),
                           PoissonGap(20'000), ClientHistory::kUnbounded);
  cluster.Run();

  const OpCounts counts = CountOps(histories);
  uint64_t issued = 0;
  ForEachOp(histories, [&issued](const OpRecord&) { issued++; });
  EXPECT_GT(issued, 15'000u);
  EXPECT_EQ(issued, counts.ok() + counts.failed());
  EXPECT_EQ(counts.failed(), 0u);
  LatencyTimeline reads(kSecond / 10, 20);
  RecordLatencies(histories, &reads);
  const Histogram total = reads.Total();
  EXPECT_GT(total.count(), 10'000u);
  // Median unloaded-ish read latency in single-digit microseconds.
  EXPECT_LT(total.Percentile(0.5), 15'000u);
}

TEST(ClusterTest, Determinism) {
  auto run = [] {
    Cluster cluster(SmallCluster());
    cluster.CreateTable(1, 0);
    cluster.LoadTable(1, 1'000, 30, 100);
    const ClientHistories histories =
        StartClientHistories(cluster, 1, kSecond / 5, YcsbBChoice(1'000),
                             PoissonGap(50'000), ClientHistory::kUnbounded);
    cluster.Run();
    return std::make_tuple(histories[0]->ops().size(), CountOps(histories), cluster.now(),
                           cluster.net().total_bytes_sent());
  };
  EXPECT_EQ(run(), run());
}

// ------------------------------------------------- One engine, one lane.

TEST(ClusterDeathTest, FewerThanOneLaneIsRejected) {
  for (const int lanes : {0, -1}) {
    ClusterConfig config = SmallCluster();
    config.lanes = lanes;
    EXPECT_DEATH({ Cluster cluster(config); }, "config.lanes >= 1") << "lanes=" << lanes;
  }
}

#if ROCKSTEADY_DCHECK_ENABLED

// Cluster::now() is root context's clock: it only advances between run
// segments, so reading it inside an event would silently return a stale
// time. Events read their node's Simulator::now() instead.
TEST(ClusterDeathTest, NowInsideAnEventIsFatal) {
  Cluster cluster(SmallCluster());
  cluster.client(0).sim().At(10, [&cluster] { (void)cluster.now(); });
  EXPECT_DEATH(cluster.Run(), "in_windows_");
}

// An event touches only its own node: a master's state is reachable from
// its own events and from root context, and from nowhere else. The check
// is per node, so it fires at one lane too, where the per-lane ownership
// check in Simulator::Enqueue cannot.
TEST(ClusterDeathTest, CrossNodeTouchIsFatal) {
  Cluster cluster(SmallCluster());
  cluster.CreateTable(1, 0);
  MasterServer& master = cluster.master(0);
  (void)master.objects();  // Root context.
  bool touched = false;
  master.sim().At(10, [&] { touched = master.objects().tablets().Find(1, 0) != nullptr; });
  cluster.Run();
  EXPECT_TRUE(touched);
  cluster.coordinator().sim().At(cluster.now() + 10, [&] { (void)master.objects(); });
  EXPECT_DEATH(cluster.Run(), "InRootOrOn");

  // Clients follow the same rule: an op issued from the client's own event
  // runs, one issued from the coordinator's event is fatal.
  Cluster other(SmallCluster());
  other.CreateTable(1, 0);
  RamCloudClient& client = other.client(0);
  bool read = false;
  client.sim().At(10, [&] {
    client.Read(1, Cluster::MakeKey(0, 30), [&](Status, const std::string&) { read = true; });
  });
  other.Run();
  EXPECT_TRUE(read);
  other.coordinator().sim().At(other.now() + 10, [&] {
    client.Read(1, Cluster::MakeKey(0, 30), [](Status, const std::string&) {});
  });
  EXPECT_DEATH(other.Run(), "InRootOrOn");
}

#endif  // ROCKSTEADY_DCHECK_ENABLED

}  // namespace
}  // namespace rocksteady
