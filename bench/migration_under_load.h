// The paper's migration-under-load set-up (§4.1), shared by Figures 9-14,
// the design ablations and engine_throughput's full-stack scenarios: YCSB-B
// clients offer nearly open load to one table, wholly on master 0 or spread
// over every master, and the upper half of its hash space may migrate from
// master 0 to master 1 with Rocksteady.
#ifndef ROCKSTEADY_BENCH_MIGRATION_UNDER_LOAD_H_
#define ROCKSTEADY_BENCH_MIGRATION_UNDER_LOAD_H_

#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench/experiment_common.h"
#include "src/migration/rocksteady_target.h"

namespace rocksteady {

// What the callers of the set-up vary; everything else is fixed.
struct MigrationUnderLoad {
  ClusterConfig config;
  uint64_t records = 0;
  // Of the loaded records; the clients ask for YCSB's 30-byte keys.
  size_t key_length = 30;
  double theta = 0.99;
  // Per client; each of config.num_clients clients runs one ClientActor.
  double ops_per_second = 0;
  size_t max_outstanding = 32;
  Tick stop_time = 0;  // No arrivals at/after this time.
  bool spread = false;  // Split the table evenly over every master.
  std::optional<Tick> migrate_at;  // Upper half of the table, master 0 -> 1.
  RocksteadyOptions options;
  // Optional recorders; any may be null. The migrated-bytes timeline and the
  // source/target utilisations are those of masters 0 and 1.
  LatencyTimeline* read_latency = nullptr;
  LatencyTimeline* throughput = nullptr;
  CounterTimeline* migrated_bytes = nullptr;
  UtilizationTimeline* source_dispatch = nullptr;
  UtilizationTimeline* source_worker = nullptr;
  UtilizationTimeline* target_dispatch = nullptr;
  UtilizationTimeline* target_worker = nullptr;
};

// Builds, loads and arms one run of a MigrationUnderLoad; the caller then
// drives the clock through cluster() and reads the outcome back.
class MigrationUnderLoadRun {
 public:
  explicit MigrationUnderLoadRun(const MigrationUnderLoad& spec)
      : cluster_(spec.config), workload_(WorkloadFor(spec)) {
    EnableMigration(&cluster_);
    cluster_.CreateTable(kTable, 0);
    if (spec.spread) {
      SpreadTableAcross(cluster_, kTable, spec.config.num_masters);
    }
    cluster_.LoadTable(kTable, spec.records, spec.key_length, 100);

    ClientActorConfig actor_config;
    actor_config.ops_per_second = spec.ops_per_second;
    actor_config.max_outstanding = spec.max_outstanding;
    actor_config.stop_time = spec.stop_time;
    for (int c = 0; c < spec.config.num_clients; c++) {
      actors_.push_back(std::make_unique<ClientActor>(
          kTable, &cluster_.client(static_cast<size_t>(c)), &workload_, actor_config));
      actors_.back()->set_read_latency(spec.read_latency);
      actors_.back()->set_throughput(spec.throughput);
      actors_.back()->Start();
    }

    cluster_.master(0).cores().set_dispatch_util(spec.source_dispatch);
    cluster_.master(0).cores().set_worker_util(spec.source_worker);
    cluster_.master(1).cores().set_dispatch_util(spec.target_dispatch);
    cluster_.master(1).cores().set_worker_util(spec.target_worker);

    if (spec.migrate_at.has_value()) {
      // Cross-cutting control actions go through safe points.
      cluster_.AtSafePoint(*spec.migrate_at, [this, options = spec.options,
                                              bytes = spec.migrated_bytes] {
        auto* manager = StartRocksteadyMigration(
            &cluster_, kTable, kMid, ~0ull, 0, 1, options,
            [this](const MigrationStats& s) { stats_ = s; });
        manager->set_bytes_timeline(bytes);
      });
    }
  }

  MigrationUnderLoadRun(const MigrationUnderLoadRun&) = delete;
  MigrationUnderLoadRun& operator=(const MigrationUnderLoadRun&) = delete;

  Cluster& cluster() { return cluster_; }
  // Empty until the migration completes.
  const std::optional<MigrationStats>& stats() const { return stats_; }

  // Client ops completed and failed (timed out), summed over the clients.
  uint64_t completed() const {
    uint64_t n = 0;
    for (const auto& actor : actors_) {
      n += actor->completed();
    }
    return n;
  }
  uint64_t failed() const {
    uint64_t n = 0;
    for (const auto& actor : actors_) {
      n += actor->failed();
    }
    return n;
  }

 private:
  static constexpr TableId kTable = 1;
  static constexpr KeyHash kMid = 1ull << 63;

  static YcsbWorkload WorkloadFor(const MigrationUnderLoad& spec) {
    YcsbConfig ycsb = YcsbConfig::WorkloadB();
    ycsb.num_records = spec.records;
    ycsb.theta = spec.theta;
    return YcsbWorkload(ycsb);
  }

  Cluster cluster_;
  // One workload for every client: its key generator keeps no state between
  // draws, so each client's own RNG alone picks its keys.
  YcsbWorkload workload_;
  std::vector<std::unique_ptr<ClientActor>> actors_;
  std::optional<MigrationStats> stats_;
};

// What a driver prints in place of a migration's numbers when the migration
// had not completed by `end`.
inline std::string UnfinishedMigration(Tick end) {
  char line[64];
  std::snprintf(line, sizeof(line), "did not finish by t = %.2f s", ToSeconds(end));
  return line;
}

}  // namespace rocksteady

#endif  // ROCKSTEADY_BENCH_MIGRATION_UNDER_LOAD_H_
