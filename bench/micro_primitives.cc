// Micro-benchmarks for the wall-clock-performance-critical primitives: key
// hashing, CRC32C, Zipfian generation, hash-table ops, log append, replay,
// the migration source's pull scan and tablet drop, and the event queue.
// These measure *real* time (google-benchmark), unlike the figure drivers,
// which measure simulated time.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/common/byte_slice.h"
#include "src/common/crc32c.h"
#include "src/common/hash.h"
#include "src/common/random.h"
#include "src/common/zipfian.h"
#include "src/hashtable/hash_table.h"
#include "src/log/log.h"
#include "src/sim/cost_model.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"
#include "src/store/object_manager.h"

namespace rocksteady {
namespace {

void BM_Murmur3(benchmark::State& state) {
  const std::string key(static_cast<size_t>(state.range(0)), 'k');
  for (auto _ : state) {
    benchmark::DoNotOptimize(HashKey(key));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Murmur3)->Arg(30)->Arg(128)->Arg(1024);

void BM_Crc32c(benchmark::State& state) {
  const std::vector<uint8_t> data(static_cast<size_t>(state.range(0)), 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32c(0, data.data(), data.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(128)->Arg(1024)->Arg(65536);

void BM_ZipfianNext(benchmark::State& state) {
  ZipfianGenerator gen(1'000'000, 0.99);
  Random rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.Next(rng));
  }
}
BENCHMARK(BM_ZipfianNext);

void BM_HashTableLookup(benchmark::State& state) {
  HashTable table(20);
  constexpr uint64_t kEntries = 1'000'000;
  for (uint64_t i = 0; i < kEntries; i++) {
    table.Insert(Mix64(i), LogRef(1, static_cast<uint32_t>(i)));
  }
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Lookup(Mix64(i++ % kEntries)));
  }
}
BENCHMARK(BM_HashTableLookup);

void BM_HashTableInsert(benchmark::State& state) {
  HashTable table(20);
  uint64_t i = 0;
  for (auto _ : state) {
    table.Insert(Mix64(i++), LogRef(1, 0));
  }
}
BENCHMARK(BM_HashTableInsert);

void BM_LogAppend(benchmark::State& state) {
  Log log(1 << 20);
  const std::string value(static_cast<size_t>(state.range(0)), 'v');
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(log.AppendObject(1, Mix64(i++), "key", value, 1));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_LogAppend)->Arg(100)->Arg(1024);

void BM_ObjectManagerWrite(benchmark::State& state) {
  ObjectManager om;
  const std::string value(100, 'v');
  uint64_t i = 0;
  for (auto _ : state) {
    const std::string key = "key" + std::to_string(i++ % 100'000);
    benchmark::DoNotOptimize(om.Write(1, key, HashKey(key), value));
  }
}
BENCHMARK(BM_ObjectManagerWrite);

// A source master's store for the pull-path benchmarks: 600k YCSB records
// (30 B keys, 100 B values) in 2^18 buckets (~2.3 entries per bucket), so
// the ~100 MB log and the 38 MB bucket array are far larger than L2.
constexpr uint64_t kPullRecords = 600'000;
constexpr int kPullLog2Buckets = 18;
constexpr TableId kPullTable = 1;
// The half of the key-hash space a migration moves.
constexpr KeyHash kPullEndHash = ~0ull >> 1;

std::unique_ptr<ObjectManager> LoadPullSource() {
  ObjectManagerOptions options;
  options.hash_table_log2_buckets = kPullLog2Buckets;
  auto objects = std::make_unique<ObjectManager>(options);
  const std::string value(100, 'v');
  std::string key;
  for (uint64_t i = 0; i < kPullRecords; i++) {
    Cluster::MakeKeyInto(i, 30, &key);
    const KeyHash hash = HashKey(kPullTable, key);
    objects->Write(kPullTable, key, hash, value);
  }
  return objects;
}

// Reports the wall time per record the pass visited, in seconds (the
// console prints it as a time, e.g. "per_record=190ns").
void SetPerRecord(benchmark::State& state, uint64_t records) {
  state.counters["per_record"] = benchmark::Counter(
      static_cast<double>(records), benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void BM_PullScan(benchmark::State& state) {
  // The source side of a Rocksteady pull (ObjectManager::PullRange, what
  // HandlePull runs): 20 KB pulls walk the migrating half's buckets, read
  // and checksum each entry, and copy it into the reply, until the range is
  // done.
  static const std::unique_ptr<ObjectManager> objects = LoadPullSource();
  const size_t end_bucket = objects->hash_table().BucketOf(kPullEndHash) + 1;
  constexpr size_t kBudgetBytes = 20 * 1024;
  uint64_t records = 0;
  for (auto _ : state) {
    size_t cursor = 0;
    while (cursor < end_bucket) {
      ObjectManager::PullBatch pulled = objects->PullRange(
          kPullTable, 0, kPullEndHash, /*min_version=*/0, cursor, end_bucket, kBudgetBytes);
      records += pulled.record_count;
      cursor = pulled.next_cursor;
      benchmark::DoNotOptimize(pulled.records);
    }
  }
  SetPerRecord(state, records);
}
BENCHMARK(BM_PullScan);

void BM_TabletDrop(benchmark::State& state) {
  // The source's post-commit drop of the migrated half
  // (ObjectManager::DropTabletEntries): read each entry, mark it dead,
  // unlink it. Destructive, so every iteration drops from a freshly loaded
  // store, loaded outside the timed region.
  uint64_t records = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::unique_ptr<ObjectManager> objects = LoadPullSource();
    state.ResumeTiming();
    records += objects->DropTabletEntries(kPullTable, 0, kPullEndHash);
    state.PauseTiming();
    objects.reset();
    state.ResumeTiming();
  }
  SetPerRecord(state, records);
}
// Each load takes longer than the timed drop; a fixed count bounds the run.
BENCHMARK(BM_TabletDrop)->Iterations(5);

void BM_EventQueue(benchmark::State& state) {
  // Event throughput bounds how fast experiments run in wall-clock time.
  Simulator sim;
  for (auto _ : state) {
    sim.After(1, [] {});
    sim.RunUntil(sim.now() + 1);
  }
}
BENCHMARK(BM_EventQueue);

void BM_EventDispatch(benchmark::State& state) {
  // Full schedule -> dispatch -> free cost per event with a populated
  // calendar: `range(0)` concurrent timer chains keep the ring occupied the
  // way a real run does, so this reads out the engine's per-dispatch ns/op
  // rather than the empty-queue fast path BM_EventQueue measures.
  const int chains = static_cast<int>(state.range(0));
  Simulator sim;
  struct Chain {
    Simulator* sim;
    Tick period;
    void Step() {
      sim->At(sim->now() + period, [this] { Step(); });
    }
  };
  std::vector<Chain> timers(static_cast<size_t>(chains), Chain{&sim, 100});
  for (int i = 0; i < chains; i++) {
    sim.At(static_cast<Tick>(i), [&timers, i] { timers[static_cast<size_t>(i)].Step(); });
  }
  sim.RunUntil(10'000);  // Warm up: slabs allocated, window sliding.
  size_t processed = sim.events_processed();
  for (auto _ : state) {
    // Each 100 ns of simulated time dispatches one event per chain.
    sim.RunUntil(sim.now() + 100);
  }
  processed = sim.events_processed() - processed;
  state.SetItemsProcessed(static_cast<int64_t>(processed));
}
BENCHMARK(BM_EventDispatch)->Arg(1)->Arg(32)->Arg(256);

void BM_NetworkSend(benchmark::State& state) {
  // One Network::Send plus its delivery: link arbitration, serialization
  // charging, the pooled delivery event, and the inline NetFn dispatch.
  LaneSet lanes(LaneSet::Config{});
  CostModel costs;
  Network net(&lanes, &costs);
  const NodeId a = net.AddNode();
  const NodeId b = net.AddNode();
  uint64_t delivered = 0;
  for (auto _ : state) {
    net.Send(a, b, /*wire_bytes=*/100, [&delivered] { delivered++; });
    lanes.Run();
  }
  benchmark::DoNotOptimize(delivered);
  state.SetItemsProcessed(static_cast<int64_t>(delivered));
}
BENCHMARK(BM_NetworkSend);

}  // namespace
}  // namespace rocksteady

BENCHMARK_MAIN();
