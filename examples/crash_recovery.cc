// Fault tolerance during migration: crash the migration *target* mid-flight
// and watch lineage-based recovery (§3.4) put everything back together.
//
// Ownership of the migrating tablet moved to the target at migration start,
// and the target accepted writes — but its side logs were never replicated
// (that is the point of lineage: no synchronous re-replication). On the
// crash, ownership snaps back to the source, whose copy is complete, and
// the source replays only the *tail* of the target's recovery log (the
// writes the target serviced) from the backups.
#include <cstdio>
#include <map>

#include "src/cluster/cluster.h"
#include "src/migration/rocksteady_target.h"

int main() {
  using namespace rocksteady;

  constexpr TableId kTable = 1;
  constexpr KeyHash kMid = 1ull << 63;
  constexpr uint64_t kRecords = 50'000;

  ClusterConfig config;
  config.num_masters = 5;
  config.num_clients = 2;
  Cluster cluster(config);
  EnableMigration(&cluster);
  cluster.CreateTable(kTable, 0);
  cluster.LoadTable(kTable, kRecords, 30, 100);

  bool migration_done = false;
  StartRocksteadyMigration(&cluster, kTable, kMid, ~0ull, 0, 1, RocksteadyOptions{},
                           [&](const MigrationStats&) { migration_done = true; });

  // While the migration runs, write fresh values to migrating keys: they are
  // serviced by the *target* (immediate ownership transfer).
  std::map<std::string, std::string> fresh;
  cluster.RunUntil(100 * kMicrosecond);
  for (uint64_t i = 0; i < kRecords && fresh.size() < 25; i++) {
    const std::string key = Cluster::MakeKey(i, 30);
    if (HashKey(key) >= kMid) {
      fresh[key] = "updated-at-target-" + std::to_string(i);
      cluster.client(0).Write(kTable, key, fresh[key], [](Status) {});
    }
  }
  cluster.RunUntil(400 * kMicrosecond);
  std::printf("migration in flight (done=%d), dependencies registered: %zu\n",
              migration_done, cluster.coordinator().dependencies().size());

  // Crash the target mid-migration and run coordinated recovery.
  std::printf("crashing the migration target (master 1)...\n");
  cluster.master(1).Crash();
  bool recovered = false;
  cluster.coordinator().HandleCrash(cluster.master(1).id(), [&] { recovered = true; });
  cluster.Run();
  std::printf("recovery complete: %d\n", recovered);

  // Ownership returned to the source.
  std::printf("upper half owned by master id %u (source is id %u)\n",
              cluster.coordinator().OwnerOf(kTable, kMid), cluster.master(0).id());

  // Every record — including the writes the dead target serviced — survives.
  int intact = 0;
  int checked = 0;
  for (uint64_t i = 0; i < kRecords; i += 487) {
    const std::string key = Cluster::MakeKey(i, 30);
    const std::string expected = fresh.count(key) ? fresh[key] : std::string(100, 'v');
    checked++;
    cluster.client(0).Read(kTable, key, [&, expected](Status status, const std::string& value) {
      intact += (status == Status::kOk && value == expected);
    });
  }
  int fresh_ok = 0;
  for (const auto& [key, expected] : fresh) {
    cluster.client(1).Read(kTable, key, [&, e = expected](Status status, const std::string& v) {
      fresh_ok += (status == Status::kOk && v == e);
    });
  }
  cluster.Run();
  std::printf("spot check: %d/%d records intact\n", intact, checked);
  std::printf("writes serviced by the crashed target: %d/%zu recovered via lineage\n", fresh_ok,
              fresh.size());
  return 0;
}
