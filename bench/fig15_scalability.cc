// Figure 15: "Source and target parallel migration scalability."
//
// Runs the pull (source) and replay (target) logic in isolation on large
// batches of records, sweeping worker counts 1..16 and record sizes 128 B
// and 1024 B, and reports achieved GB/s per side. "Record size" means the
// whole log entry (header + key + value), as the migration path moves
// entries.
//
// Paper result: source ~5.7 GB/s and target ~3 GB/s at 16 threads for 128 B
// records (1.8-2.4x apart); for 1 KB records both sides clear line rate
// (5 GB/s) with a few cores.
//
// A second section scales the *simulator itself* at the paper's cluster
// size: a 24-master YCSB-B cluster sharded across event lanes on worker
// threads, sweeping the lane count and reporting measured wall-clock time
// and speedup over one lane. Every lane count must produce the same trace
// hash — the sharded engine's contract — or the bench exits 1.
#include <chrono>
#include <cstdio>
#include <thread>

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

// Source side: saturate `workers` cores with Pull processing over 2x that
// many hash-space partitions; measure entry bytes scanned per simulated
// second.
double SourceRateGBps(int workers, size_t entry_bytes) {
  const size_t count = 64 * 1024;
  auto om = BuildStore(count, entry_bytes);
  Simulator sim(1);
  CostModel costs;
  CoreSet cores(&sim, workers);

  struct Partition {
    size_t begin = 0;
    size_t end = 0;
    size_t cursor = 0;
  };
  const size_t parts = static_cast<size_t>(workers) * 2;
  std::vector<Partition> partitions(parts);
  const size_t buckets = om->hash_table().num_buckets();
  for (size_t p = 0; p < parts; p++) {
    partitions[p] = {buckets * p / parts, buckets * (p + 1) / parts, buckets * p / parts};
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
           size_t bytes = 0;
           size_t records = 0;
           part.cursor = om->hash_table().ScanBuckets(
               part.end, part.cursor,
               [&](KeyHash, LogRef ref) {
                 LogEntryView entry;
                 if (om->log().Read(ref, &entry)) {
                   bytes += entry.header.TotalLength();
                   records++;
                 }
               },
               [&] { return bytes < 20 * 1024; });
           total_bytes += bytes;
           return costs.PullCost(records, bytes);
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
  Simulator sim(1);
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
           size_t offset = 0;
           size_t records = 0;
           while (offset < batch->size()) {
             LogEntryView entry;
             if (!ReadEntry(batch->data() + offset, batch->size() - offset, &entry)) {
               break;
             }
             om.Replay(entry, side_logs[slot].get());
             records++;
             offset += entry.header.TotalLength();
           }
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

// --- Lane-sharded simulator scaling at the paper's 24-server size. ---

struct LaneScalePoint {
  size_t events = 0;
  double wall_s = 0;  // Measured wall time of the run, lanes on real threads.
  uint64_t trace_hash = 0;
};

// One YCSB-B run sharded across `lanes` event lanes, threaded above one.
LaneScalePoint RunLaneScale(int lanes, int masters, int clients, double ops_per_client,
                            Tick stop) {
  ClusterConfig config = MakeConfig(masters, clients, 1.0);
  config.master.hash_table_log2_buckets = 15;
  config.master.segment_size = 256 * 1024;
  config.lanes = lanes;
  config.lane_threads = lanes > 1;
  Cluster cluster(config);

  const TableId table = 1;
  cluster.CreateTable(table, 0);
  SpreadTableAcross(cluster, table, config.num_masters);
  cluster.LoadTable(table, 48'000, 12, 100);

  YcsbConfig ycsb = YcsbConfig::WorkloadB();
  ycsb.num_records = 48'000;
  ClientActorConfig actor_config;
  actor_config.ops_per_second = ops_per_client;
  actor_config.stop_time = stop;
  std::vector<std::unique_ptr<YcsbWorkload>> workloads;
  std::vector<std::unique_ptr<ClientActor>> actors;
  for (int c = 0; c < config.num_clients; c++) {
    workloads.push_back(std::make_unique<YcsbWorkload>(ycsb));
    actors.push_back(std::make_unique<ClientActor>(table, &cluster.client(static_cast<size_t>(c)),
                                                   workloads.back().get(), actor_config));
    actors.back()->Start();
  }

  LaneScalePoint point;
  const size_t before = cluster.events_processed();
  const auto start = std::chrono::steady_clock::now();
  cluster.Run();
  point.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  point.events = cluster.events_processed() - before;
  point.trace_hash = cluster.trace_hash();
  return point;
}

void LaneSweep(const char* title, std::initializer_list<int> lane_counts, int masters,
               int clients, double ops_per_client, Tick stop) {
  std::printf("\n%s\n", title);
  std::printf("-----------------------------------------------------------------------------\n");
  std::printf("%-6s %12s %12s %16s %10s\n", "lanes", "events", "wall (s)", "events/s",
              "speedup");
  LaneScalePoint base;
  bool first = true;
  for (int lanes : lane_counts) {
    const LaneScalePoint point = RunLaneScale(lanes, masters, clients, ops_per_client, stop);
    if (first) {
      base = point;
      first = false;
    } else if (point.trace_hash != base.trace_hash) {
      std::printf("TRACE HASH DIVERGED at %d lanes: 0x%016llx vs 0x%016llx\n", lanes,
                  static_cast<unsigned long long>(point.trace_hash),
                  static_cast<unsigned long long>(base.trace_hash));
      std::exit(1);
    }
    std::printf("%-6d %12zu %12.3f %16.0f %9.2fx\n", lanes, point.events, point.wall_s,
                static_cast<double>(point.events) / point.wall_s, base.wall_s / point.wall_s);
  }
  std::printf("(trace hash identical at every lane count: 0x%016llx; measured on %u CPUs)\n",
              static_cast<unsigned long long>(base.trace_hash),
              std::thread::hardware_concurrency());
}

void PrintLaneScaling() {
  LaneSweep("Simulator lane scaling: 24 masters, 8 clients, YCSB-B (3.2M ops/s aggregate)",
            {1, 2, 4}, 24, 8, 400'000, 30 * kMillisecond);
  // The north-star shape: 96 servers, four times the paper's cluster. A
  // shorter window keeps the sweep quick; the per-window density is what
  // the lanes see.
  LaneSweep("Simulator lane scaling: 96 masters, 16 clients, YCSB-B (6.4M ops/s aggregate)",
            {1, 2, 4}, 96, 16, 400'000, 10 * kMillisecond);
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
  PrintLaneScaling();
  return 0;
}
