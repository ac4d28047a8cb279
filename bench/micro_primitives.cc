// Micro-benchmarks for the wall-clock-performance-critical primitives: key
// hashing, CRC32C, Zipfian generation, hash-table ops, log append, replay,
// and the event queue. These measure *real* time (google-benchmark), unlike
// the figure drivers, which measure simulated time.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

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
