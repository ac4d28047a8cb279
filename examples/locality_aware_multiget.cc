// Access locality and multigets: why Rocksteady's fine-grained migration
// matters (the §2.1 motivation). The same 7-key multigets cost the cluster
// ~N RPCs when the keys live on N servers; co-locating correlated keys
// multiplies effective cluster capacity.
#include <cstdio>

#include "bench/experiment_common.h"

int main() {
  using namespace rocksteady;

  constexpr TableId kTable = 1;
  constexpr int kServers = 4;
  constexpr uint64_t kRecords = 20'000;

  Cluster cluster(MakeConfig(kServers, 2));
  cluster.CreateTable(kTable, 0);
  SpreadTableAcross(cluster, kTable, kServers);
  cluster.LoadTable(kTable, kRecords, 30, 100);

  // Group loaded keys by owning server.
  std::vector<std::vector<std::string>> pools(kServers);
  for (uint64_t i = 0; i < kRecords; i++) {
    std::string key = Cluster::MakeKey(i, 30);
    pools[cluster.coordinator().OwnerOf(kTable, HashKey(key)) - 1].push_back(std::move(key));
  }
  cluster.client(0).Read(kTable, pools[0][0], [](Status, const std::string&) {});
  cluster.Run();

  std::printf("%8s %22s %26s\n", "spread", "Mobjects/s (total)", "RPCs issued per multiget");
  for (int spread = 1; spread <= kServers; spread++) {
    uint64_t objects = 0;
    MultiGetLoop loop(&cluster.client(0), kTable, &pools, spread, 7, &objects);
    const uint64_t calls_before = cluster.rpc().calls_issued();
    const Tick t0 = cluster.now();
    loop.Run(/*concurrency=*/192);
    cluster.RunUntil(t0 + kSecond / 20);
    const double seconds = static_cast<double>(cluster.now() - t0) / 1e9;
    const double rpcs_per_get =
        static_cast<double>(cluster.rpc().calls_issued() - calls_before) /
        (static_cast<double>(objects) / 7.0);
    std::printf("%8d %22.2f %26.1f\n", spread, static_cast<double>(objects) / seconds / 1e6,
                rpcs_per_get);
    // Stop this configuration's loop and let in-flight multigets drain.
    loop.Stop();
    cluster.Run();
  }
  std::printf("\nco-locating access-correlated keys on one server multiplies cluster\n"
              "capacity -- the reason Rocksteady migrates at arbitrary boundaries.\n");
  return 0;
}
