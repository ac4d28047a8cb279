// Tests for the coordinator: tablet map operations, the lineage dependency
// registry, index configuration, server directory, and the RPC surface
// clients use to refresh their maps.
#include <gtest/gtest.h>

#include <memory>

#include "src/cluster/cluster.h"

namespace rocksteady {
namespace {

ClusterConfig SmallCluster() {
  ClusterConfig config;
  config.num_masters = 4;
  config.num_clients = 1;
  config.master.hash_table_log2_buckets = 10;
  return config;
}

TEST(CoordinatorTest, CreateTableInstallsTabletOnOwner) {
  Cluster cluster(SmallCluster());
  cluster.CreateTable(7, 2);
  EXPECT_EQ(cluster.coordinator().OwnerOf(7, 0), cluster.master(2).id());
  EXPECT_EQ(cluster.coordinator().OwnerOf(7, ~0ull), cluster.master(2).id());
  const Tablet* tablet = cluster.master(2).objects().tablets().Find(7, 123);
  ASSERT_NE(tablet, nullptr);
  EXPECT_EQ(tablet->state, TabletState::kNormal);
  // Other masters know nothing of it.
  EXPECT_EQ(cluster.master(0).objects().tablets().Find(7, 123), nullptr);
}

TEST(CoordinatorTest, SplitMirrorsOnOwner) {
  Cluster cluster(SmallCluster());
  cluster.CreateTable(1, 0);
  ASSERT_EQ(cluster.coordinator().SplitTablet(1, 1ull << 63), Status::kOk);
  const auto config = cluster.coordinator().GetTableConfig(1);
  ASSERT_EQ(config.size(), 2u);
  EXPECT_EQ(config[0].start_hash, 0u);
  EXPECT_EQ(config[0].end_hash, (1ull << 63) - 1);
  EXPECT_EQ(config[1].start_hash, 1ull << 63);
  // The owning master's tablet manager saw the same split.
  EXPECT_EQ(cluster.master(0).objects().tablets().tablets().size(), 2u);
}

TEST(CoordinatorTest, SplitUnknownTableFails) {
  Cluster cluster(SmallCluster());
  EXPECT_EQ(cluster.coordinator().SplitTablet(42, 100), Status::kTableNotFound);
}

TEST(CoordinatorTest, UpdateOwnershipRequiresExactRange) {
  Cluster cluster(SmallCluster());
  cluster.CreateTable(1, 0);
  cluster.coordinator().SplitTablet(1, 1000);
  EXPECT_EQ(cluster.coordinator().UpdateOwnership(1, 0, 500, cluster.master(1).id()),
            Status::kTableNotFound);  // Not a tablet boundary.
  // Protocol callers install the tablet on the new owner *before* repointing
  // the map — the cross-layer audit checks exactly this order.
  cluster.master(1).objects().tablets().Add(Tablet{1, 0, 999, TabletState::kNormal});
  EXPECT_EQ(cluster.coordinator().UpdateOwnership(1, 0, 999, cluster.master(1).id()),
            Status::kOk);
  cluster.master(0).objects().tablets().Remove(1, 0, 999);
  EXPECT_EQ(cluster.coordinator().OwnerOf(1, 42), cluster.master(1).id());
  EXPECT_EQ(cluster.coordinator().OwnerOf(1, 2000), cluster.master(0).id());
}

TEST(CoordinatorTest, GetTableConfigSortedByHash) {
  Cluster cluster(SmallCluster());
  cluster.CreateTable(1, 0);
  cluster.coordinator().SplitTablet(1, 3ull << 62);
  cluster.coordinator().SplitTablet(1, 1ull << 62);
  cluster.coordinator().SplitTablet(1, 2ull << 62);
  const auto config = cluster.coordinator().GetTableConfig(1);
  ASSERT_EQ(config.size(), 4u);
  for (size_t i = 1; i < config.size(); i++) {
    EXPECT_GT(config[i].start_hash, config[i - 1].start_hash);
    EXPECT_EQ(config[i].start_hash, config[i - 1].end_hash + 1);
  }
}

TEST(CoordinatorTest, DependencyRegistryRoundTrip) {
  Cluster cluster(SmallCluster());
  MigrationDependency dependency;
  dependency.source = cluster.master(0).id();
  dependency.target = cluster.master(1).id();
  dependency.table = 1;
  dependency.start_hash = 1ull << 63;
  dependency.end_hash = ~0ull;
  dependency.target_log_segment = 7;
  dependency.target_log_offset = 4096;
  cluster.coordinator().RegisterDependency(dependency);

  auto by_source = cluster.coordinator().FindDependencyBySource(cluster.master(0).id());
  ASSERT_TRUE(by_source.has_value());
  EXPECT_EQ(by_source->target_log_segment, 7u);
  EXPECT_EQ(by_source->target_log_offset, 4096u);
  auto by_target = cluster.coordinator().FindDependencyByTarget(cluster.master(1).id());
  ASSERT_TRUE(by_target.has_value());
  EXPECT_FALSE(cluster.coordinator().FindDependencyBySource(cluster.master(1).id()).has_value());

  cluster.coordinator().DropDependency(cluster.master(0).id(), cluster.master(1).id(), 1);
  EXPECT_FALSE(cluster.coordinator().FindDependencyBySource(cluster.master(0).id()).has_value());
  EXPECT_TRUE(cluster.coordinator().dependencies().empty());
}

TEST(CoordinatorTest, AliveServersExcludesCrashedAndSelf) {
  Cluster cluster(SmallCluster());
  EXPECT_EQ(cluster.coordinator().AliveServers().size(), 4u);
  EXPECT_EQ(cluster.coordinator().AliveServers(cluster.master(0).id()).size(), 3u);
  cluster.master(2).Crash();
  const auto alive = cluster.coordinator().AliveServers();
  EXPECT_EQ(alive.size(), 3u);
  for (ServerId id : alive) {
    EXPECT_NE(id, cluster.master(2).id());
  }
}

TEST(CoordinatorTest, IndexConfigResolvesOwnersAndInstallsIndexlets) {
  Cluster cluster(SmallCluster());
  cluster.CreateTable(1, 0);
  cluster.coordinator().CreateIndex(1, 1,
                                    {{.start_key = "", .end_key = "m", .owner = 3},
                                     {.start_key = "m", .end_key = "", .owner = 4}});
  const auto* config = cluster.coordinator().GetIndexConfig(1, 1);
  ASSERT_NE(config, nullptr);
  ASSERT_EQ(config->size(), 2u);
  EXPECT_EQ((*config)[0].owner_node, cluster.master(2).node());
  EXPECT_EQ((*config)[1].owner_node, cluster.master(3).node());
  EXPECT_NE(cluster.master(2).FindIndexlet(1, 1, "apple"), nullptr);
  EXPECT_EQ(cluster.master(2).FindIndexlet(1, 1, "zebra"), nullptr);
  EXPECT_NE(cluster.master(3).FindIndexlet(1, 1, "zebra"), nullptr);
  EXPECT_EQ(cluster.coordinator().GetIndexConfig(1, 2), nullptr);
  EXPECT_EQ(cluster.coordinator().GetIndexConfig(9, 1), nullptr);
}

TEST(CoordinatorTest, GetTableConfigRpcFromClient) {
  Cluster cluster(SmallCluster());
  cluster.CreateTable(1, 0);
  cluster.coordinator().SplitTablet(1, 1ull << 63);

  auto request = std::make_unique<GetTableConfigRequest>();
  request->table = 1;
  std::vector<TabletConfigEntry> got;
  cluster.rpc().Call(cluster.client(0).node(), cluster.coordinator().node(), std::move(request),
                     [&](Status status, std::unique_ptr<RpcResponse> response) {
                       ASSERT_EQ(status, Status::kOk);
                       got = static_cast<GetTableConfigResponse&>(*response).tablets;
                     });
  cluster.Run();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].owner_node, cluster.master(0).node());

  // Unknown table: kTableNotFound status on the response.
  auto missing = std::make_unique<GetTableConfigRequest>();
  missing->table = 99;
  Status missing_status = Status::kOk;
  cluster.rpc().Call(cluster.client(0).node(), cluster.coordinator().node(), std::move(missing),
                     [&](Status, std::unique_ptr<RpcResponse> response) {
                       missing_status = response->status;
                     });
  cluster.Run();
  EXPECT_EQ(missing_status, Status::kTableNotFound);
}

TEST(CoordinatorTest, UpdateOwnershipRpc) {
  Cluster cluster(SmallCluster());
  cluster.CreateTable(1, 0);
  // Install the range on the new owner first so the ownership flip keeps
  // the cross-layer audit true (same order as a real migration commit).
  cluster.master(3).objects().tablets().Add(Tablet{1, 0, ~0ull, TabletState::kNormal});
  auto request = std::make_unique<UpdateOwnershipRequest>();
  request->table = 1;
  request->start_hash = 0;
  request->end_hash = ~0ull;
  request->new_owner = cluster.master(3).id();
  Status status = Status::kInvalidState;
  cluster.rpc().Call(cluster.master(3).node(), cluster.coordinator().node(), std::move(request),
                     [&](Status s, std::unique_ptr<RpcResponse> response) {
                       status = s == Status::kOk ? response->status : s;
                     });
  cluster.Run();
  EXPECT_EQ(status, Status::kOk);
  EXPECT_EQ(cluster.coordinator().OwnerOf(1, 5), cluster.master(3).id());
  cluster.master(0).objects().tablets().Remove(1, 0, ~0ull);
}

}  // namespace
}  // namespace rocksteady
