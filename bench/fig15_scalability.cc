// Figure 15: "Source and target parallel migration scalability."
//
// Runs the migration path's own pull scan (ObjectManager::PullRange, what
// the source's Pull handler runs) and replay (ObjectManager::ReplayRecords,
// what the target's replay workers run) in isolation on large batches of
// records, sweeping worker counts 1..16 and record sizes 128 B and 1024 B,
// and reports achieved GB/s per side. "Record size" means the whole log
// entry (header + key + value), as the migration path moves entries.
//
// Paper result: source ~5.7 GB/s and target ~3 GB/s at 16 threads for 128 B
// records (1.8-2.4x apart); for 1 KB records both sides clear line rate
// (5 GB/s) with a few cores.
//
// The simulator's own lane scaling at the paper's 24-server size is
// bench/engine_throughput's `fig15_24srv_lanes` sweep, recorded in
// BENCH_engine.json.
#include <cstdio>

#include "bench/experiment_common.h"
#include "src/common/hash.h"
#include "src/log/side_log.h"
#include "src/sim/core_set.h"
#include "src/sim/cost_model.h"
#include "src/store/object_manager.h"

namespace rocksteady {
namespace {

constexpr TableId kTable = 1;

// Builds an ObjectManager holding `count` records whose full log entries are
// `entry_bytes` long.
std::unique_ptr<ObjectManager> BuildStore(size_t count, size_t entry_bytes) {
  ObjectManagerOptions options;
  options.hash_table_log2_buckets = 18;
  options.segment_size = 1 << 20;
  auto om = std::make_unique<ObjectManager>(options);
  const size_t key_length = 30;
  const size_t value_length = entry_bytes - sizeof(LogEntryHeader) - key_length;
  const std::string value(value_length, 'v');
  for (size_t i = 0; i < count; i++) {
    char key[40];
    std::snprintf(key, sizeof(key), "key%027zu", i);
    om->Write(kTable, key, HashKey(std::string_view(key, key_length)), value);
  }
  return om;
}

// Source side: saturate `workers` cores with 20 KB Pulls over 2x that many
// hash-space partitions; measure entry bytes pulled per simulated second.
double SourceRateGBps(int workers, size_t entry_bytes) {
  const size_t count = 64 * 1024;
  auto om = BuildStore(count, entry_bytes);
  Simulator sim;
  CostModel costs;
  CoreSet cores(&sim, workers);

  struct Partition {
    size_t end = 0;
    size_t cursor = 0;
  };
  const size_t parts = static_cast<size_t>(workers) * 2;
  std::vector<Partition> partitions(parts);
  const size_t buckets = om->hash_table().num_buckets();
  for (size_t p = 0; p < parts; p++) {
    partitions[p] = {buckets * (p + 1) / parts, buckets * p / parts};
  }

  uint64_t total_bytes = 0;
  // One pull task per partition at a time, re-armed until exhausted (an
  // ideal target with zero turnaround).
  std::function<void(size_t)> pump = [&](size_t p) {
    Partition& partition = partitions[p];
    if (partition.cursor >= partition.end) {
      return;
    }
    cores.EnqueueWorker(
        {Priority::kMigration,
         [&, p] {
           Partition& part = partitions[p];
           ObjectManager::PullBatch pulled = om->PullRange(
               kTable, 0, ~KeyHash{0}, /*min_version=*/0, part.cursor, part.end, 20 * 1024);
           part.cursor = pulled.next_cursor;
           total_bytes += pulled.records.size();
           return costs.PullCost(pulled.record_count, pulled.records.size());
         },
         [&, p] { pump(p); }});
  };
  for (size_t p = 0; p < parts; p++) {
    pump(p);
  }
  sim.Run();
  return static_cast<double>(total_bytes) / static_cast<double>(sim.now());
}

// Target side: replay pre-serialized 20 KB batches into per-slot side logs
// on `workers` cores; measure entry bytes replayed per simulated second.
double TargetRateGBps(int workers, size_t entry_bytes) {
  Simulator sim;
  CostModel costs;
  CoreSet cores(&sim, workers);
  ObjectManagerOptions options;
  options.hash_table_log2_buckets = 18;
  options.segment_size = 1 << 20;
  ObjectManager om(options);

  // Pre-serialize one representative batch (re-used with distinct hashes so
  // hash-table insertion is exercised for real).
  const size_t key_length = 30;
  const size_t value_length = entry_bytes - sizeof(LogEntryHeader) - key_length;
  const std::string value(value_length, 'm');
  const size_t records_per_batch = (20 * 1024) / entry_bytes + 1;

  const size_t total_batches = 2'000;
  std::vector<std::unique_ptr<SideLog>> side_logs;
  for (int w = 0; w < workers * 2; w++) {
    side_logs.push_back(std::make_unique<SideLog>(&om.log()));
  }
  uint64_t total_bytes = 0;
  uint64_t next_id = 0;
  size_t issued = 0;
  std::function<void(size_t)> pump = [&](size_t slot) {
    if (issued >= total_batches) {
      return;
    }
    issued++;
    // Build the batch lazily (wall-clock work is real replay work below).
    auto batch = std::make_shared<std::vector<uint8_t>>();
    batch->reserve(records_per_batch * entry_bytes);
    for (size_t r = 0; r < records_per_batch; r++) {
      char key[40];
      std::snprintf(key, sizeof(key), "mig%027llu",
                    static_cast<unsigned long long>(next_id++));
      LogEntryHeader header;
      header.type = LogEntryType::kObject;
      header.table_id = kTable;
      header.key_hash = HashKey(std::string_view(key, key_length));
      header.version = 1;
      const size_t offset = batch->size();
      batch->resize(offset + sizeof(LogEntryHeader) + key_length + value.size());
      WriteEntry(batch->data() + offset, header, std::string_view(key, key_length), value);
    }
    cores.EnqueueWorker(
        {Priority::kMigration,
         [&, batch, slot] {
           const size_t records = om.ReplayRecords(*batch, side_logs[slot].get()).records;
           total_bytes += batch->size();
           return costs.ReplayCost(records, batch->size());
         },
         [&, slot] { pump(slot); }});
  };
  for (size_t slot = 0; slot < side_logs.size(); slot++) {
    pump(slot);
  }
  sim.Run();
  return static_cast<double>(total_bytes) / static_cast<double>(sim.now());
}

}  // namespace
}  // namespace rocksteady

int main() {
  using namespace rocksteady;
  std::printf("Figure 15: Source and target parallel migration scalability\n");
  std::printf("============================================================\n");
  std::printf("(paper @16 threads, 128 B: source 5.7 GB/s, target 3 GB/s; line rate 5 GB/s)\n\n");
  std::printf("%-8s %20s %20s %20s %20s\n", "threads", "src 128B (GB/s)", "tgt 128B (GB/s)",
              "src 1024B (GB/s)", "tgt 1024B (GB/s)");
  for (int workers : {1, 2, 4, 8, 12, 16}) {
    const double s128 = SourceRateGBps(workers, 128);
    const double t128 = TargetRateGBps(workers, 128);
    const double s1k = SourceRateGBps(workers, 1024);
    const double t1k = TargetRateGBps(workers, 1024);
    std::printf("%-8d %20.2f %20.2f %20.2f %20.2f\n", workers, s128, t128, s1k, t1k);
  }
  std::printf("\nsource/target ratio @16 threads (128 B): %.2fx (paper: 1.8-2.4x)\n",
              SourceRateGBps(16, 128) / TargetRateGBps(16, 128));
  return 0;
}
