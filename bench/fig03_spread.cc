// Figure 3: "Throughput and CPU load impact of access locality."
//
// 7 servers, 14 clients, back-to-back 7-key multigets. Spread N means each
// multiget's keys come from N servers (7-(N-1) keys from one, 1 from each of
// N-1 others); every server handles the same request rate. Paper result:
// total throughput falls ~4.3x from Spread 1 to Spread 7 — worker-bound with
// locality, dispatch-bound without — and cluster dispatch load saturates by
// spread ~3 while workers go idle.
#include <cstdio>

#include "bench/experiment_common.h"

namespace rocksteady {
namespace {

constexpr TableId kTable = 1;
constexpr int kServers = 7;
constexpr int kClients = 14;
constexpr int kKeysPerGet = 7;
constexpr uint64_t kRecords = 70'000;
constexpr int kConcurrentPerClient = 16;
constexpr Tick kWarmup = kSecond / 50;
constexpr Tick kMeasure = kSecond / 10;

struct SpreadResult {
  int spread = 0;
  double mobjects_per_second = 0;
  double dispatch_load = 0;  // Mean busy fraction of the 7 dispatch cores.
  double worker_load = 0;    // Mean busy fraction of the 7x12 worker cores.
};

SpreadResult RunSpread(int spread) {
  Cluster cluster(MakeConfig(kServers, kClients));
  cluster.CreateTable(kTable, 0);
  SpreadTableAcross(cluster, kTable, kServers);
  cluster.LoadTable(kTable, kRecords, 30, 100);

  // Partition loaded keys by owning server.
  std::vector<std::vector<std::string>> pools(kServers);
  for (uint64_t i = 0; i < kRecords; i++) {
    std::string key = Cluster::MakeKey(i, 30);
    const ServerId owner = cluster.coordinator().OwnerOf(kTable, HashKey(kTable, key));
    pools[owner - 1].push_back(std::move(key));
  }

  // Warm every client's tablet cache.
  for (int c = 0; c < kClients; c++) {
    cluster.client(static_cast<size_t>(c))
        .Read(kTable, pools[0][0], [](Status, const std::string&) {});
  }
  cluster.Run();

  uint64_t completed_objects = 0;
  std::vector<std::unique_ptr<MultiGetLoop>> loops;
  for (int c = 0; c < kClients; c++) {
    loops.push_back(std::make_unique<MultiGetLoop>(&cluster.client(static_cast<size_t>(c)),
                                                   kTable, &pools, spread, kKeysPerGet,
                                                   &completed_objects));
    loops.back()->Run(kConcurrentPerClient);
  }

  // Warm up, then measure over a fixed window.
  cluster.RunUntil(cluster.now() + kWarmup);
  const uint64_t objects_at_start = completed_objects;
  const Tick t0 = cluster.now();
  for (size_t s = 0; s < cluster.num_masters(); s++) {
    cluster.master(s).cores().ResetBusyCounters();
  }
  cluster.RunUntil(t0 + kMeasure);

  SpreadResult result;
  result.spread = spread;
  result.mobjects_per_second = static_cast<double>(completed_objects - objects_at_start) /
                               (static_cast<double>(kMeasure) / 1e9) / 1e6;
  Tick dispatch_busy = 0;
  Tick worker_busy = 0;
  for (size_t s = 0; s < cluster.num_masters(); s++) {
    dispatch_busy += cluster.master(s).cores().total_dispatch_busy();
    worker_busy += cluster.master(s).cores().total_worker_busy();
  }
  result.dispatch_load =
      static_cast<double>(dispatch_busy) / static_cast<double>(kMeasure) / kServers;
  result.worker_load = static_cast<double>(worker_busy) / static_cast<double>(kMeasure) /
                       (kServers * cluster.master(0).config().num_workers);
  return result;
}

}  // namespace
}  // namespace rocksteady

int main() {
  using namespace rocksteady;
  std::printf("Figure 3: Throughput and CPU load vs. multiget access locality\n");
  std::printf("================================================================\n");
  std::printf("7 servers, 14 clients, back-to-back 7-key multigets (closed loop).\n");
  std::printf("(paper: ~4.3x throughput drop from spread 1 to 7; dispatch saturates,\n");
  std::printf(" workers idle; spread-7 cluster barely beats one server)\n\n");
  std::printf("%8s %22s %22s %20s\n", "spread", "Mobjects/s (total)", "dispatch load (0-1)",
              "worker load (0-1)");
  double spread1 = 0;
  double spread7 = 0;
  for (int spread = 1; spread <= 7; spread++) {
    const SpreadResult r = RunSpread(spread);
    if (spread == 1) {
      spread1 = r.mobjects_per_second;
    }
    if (spread == 7) {
      spread7 = r.mobjects_per_second;
    }
    std::printf("%8d %22.2f %22.2f %20.2f\n", r.spread, r.mobjects_per_second, r.dispatch_load,
                r.worker_load);
  }
  std::printf("\nspread-1 : spread-7 throughput ratio = %.1fx (paper ~4.3x)\n",
              spread1 / spread7);
  std::printf("single-server equivalent at spread 1 = %.2f Mobjects/s\n", spread1 / kServers);
  return 0;
}
