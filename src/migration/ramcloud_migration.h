// RAMCloud's pre-existing (baseline) tablet migration (§2.3).
//
// Source-driven: the source iterates its whole in-memory log, copies
// matching live records into staging buffers, and ships them; the target
// performs single-threaded logical replay into its own log and
// synchronously re-replicates. Ownership moves only at the very end.
//
// Figure 5's knobs skip successive phases to expose each bottleneck:
// skip_rereplication -> skip_replay -> skip_tx -> skip_copy.
#ifndef ROCKSTEADY_SRC_MIGRATION_RAMCLOUD_MIGRATION_H_
#define ROCKSTEADY_SRC_MIGRATION_RAMCLOUD_MIGRATION_H_

#include <functional>
#include <memory>

#include "src/cluster/cluster.h"
#include "src/cluster/master_server.h"

namespace rocksteady {

struct BaselineStats {
  Tick start_time = 0;
  Tick end_time = 0;
  uint64_t bytes_scanned = 0;
  uint64_t bytes_transferred = 0;
  uint64_t records_transferred = 0;

  double DurationSeconds() const {
    return static_cast<double>(end_time - start_time) / static_cast<double>(kSecond);
  }
  double RateMBps() const {
    const double seconds = DurationSeconds();
    return seconds <= 0 ? 0 : static_cast<double>(bytes_transferred) / 1e6 / seconds;
  }
};

class BaselineMigration {
 public:
  BaselineMigration(MasterServer* source, TableId table, KeyHash start_hash, KeyHash end_hash,
                    ServerId target, BaselineMigrateOptions options,
                    std::function<void(const BaselineStats&)> done);

  void Start();

  const BaselineStats& stats() const { return stats_; }
  void set_bytes_timeline(CounterTimeline* timeline) { bytes_timeline_ = timeline; }

 private:
  void ScheduleScanChunk();
  void FinishIfDone();
  void Complete();
  void SwitchOwnership();

  MasterServer* source_;
  TableId table_;
  KeyHash start_hash_;
  KeyHash end_hash_;
  ServerId target_;
  NodeId target_node_ = 0;
  BaselineMigrateOptions options_;
  std::function<void(const BaselineStats&)> done_;
  BaselineStats stats_;
  CounterTimeline* bytes_timeline_ = nullptr;

  size_t segment_index_ = 0;
  size_t segment_offset_ = 0;
  size_t outstanding_batches_ = 0;
  bool scan_task_active_ = false;
  bool frozen_ = false;
  bool scan_done_ = false;
  bool completed_ = false;

  static constexpr size_t kBatchBudget = 20 * 1024;
  static constexpr size_t kMaxScanPerTask = 256 * 1024;
  static constexpr size_t kMaxOutstanding = 3;
};

// Registers kBaselineMigrate (source side) and kBaselineReplay (target
// side, with single-threaded replay serialization) on `master`.
void InstallBaselineMigrationHandlers(MasterServer* master);

// Experiment driver: splits and migrates [start_hash, end_hash] from
// source to target with the baseline protocol.
BaselineMigration* StartBaselineMigration(Cluster* cluster, TableId table, KeyHash start_hash,
                                          KeyHash end_hash, size_t source_index,
                                          size_t target_index,
                                          const BaselineMigrateOptions& options,
                                          std::function<void(const BaselineStats&)> done);

}  // namespace rocksteady

#endif  // ROCKSTEADY_SRC_MIGRATION_RAMCLOUD_MIGRATION_H_
