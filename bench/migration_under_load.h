// The paper's migration-under-load set-up (§4.1), shared by Figures 9-14,
// the design ablations and engine_throughput's full-stack scenarios: YCSB-B
// clients offer nearly open load to one table, wholly on master 0 or spread
// over every master, and the upper half of its hash space may migrate from
// master 0 to master 1 with Rocksteady. Each client runs one ClientHistory:
// Poisson arrivals, at most kMaxInFlight ops in flight and the rest
// backlogged, every op logged for the figures' latency tables.
#ifndef ROCKSTEADY_BENCH_MIGRATION_UNDER_LOAD_H_
#define ROCKSTEADY_BENCH_MIGRATION_UNDER_LOAD_H_

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench/client_history.h"
#include "bench/experiment_common.h"
#include "src/migration/rocksteady_target.h"

namespace rocksteady {

// What the callers of the set-up vary; everything else is fixed.
struct MigrationUnderLoad {
  ClusterConfig config;
  uint64_t records = 0;  // Loaded with YCSB's 30-byte keys and 100-byte values.
  double theta = 0.99;
  double ops_per_second = 0;  // Offered per client.
  Tick stop_time = 0;  // No arrivals at/after this time.
  bool spread = false;  // Split the table evenly over every master.
  std::optional<Tick> migrate_at;  // Upper half of the table, master 0 -> 1.
  RocksteadyOptions options;
  // Optional recorders; any may be null. The migrated-bytes timeline and the
  // source/target utilisations are those of masters 0 and 1.
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
  static constexpr TableId kTable = 1;
  // Per client: enough for the offered load to pass through an unloaded
  // cluster, few enough that an overloaded server backlogs the client.
  static constexpr size_t kMaxInFlight = 32;

  explicit MigrationUnderLoadRun(const MigrationUnderLoad& spec) : cluster_(spec.config) {
    EnableMigration(&cluster_);
    cluster_.CreateTable(kTable, 0);
    if (spec.spread) {
      SpreadTableAcross(cluster_, kTable, spec.config.num_masters);
    }
    cluster_.LoadTable(kTable, spec.records, 30, 100);
    histories_ = StartClientHistories(
        cluster_, kTable, spec.stop_time,
        YcsbBChoice(spec.records, spec.theta),
        PoissonGap(spec.ops_per_second * spec.config.num_clients), kMaxInFlight);

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
  // Every client's op log and reference model.
  const ClientHistories& histories() const { return histories_; }

 private:
  static constexpr KeyHash kMid = 1ull << 63;

  Cluster cluster_;
  ClientHistories histories_;
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
