// Figure 4: "Index scaling as a function of read throughput."
//
// One table with a secondary index; clients issue 4-record index scans with
// Zipfian (theta=0.5) start keys. Three placements:
//   1 indexlet, 1 tablet   — everything minimal
//   2 indexlets, 1 tablet  — index split across two servers
//   2 indexlets, 2 tablets — index and backing table both split
// Sweeping offered load, report the 99.9th percentile scan latency and the
// cluster dispatch load at each achieved throughput (objects/s = scans x 4).
//
// Paper result: at low load one indexlet + one tablet is sufficient and
// cheapest; at high load 2 indexlets + 1 tablet raises throughput at a
// 100 us 99.9th by ~54%; also splitting the tablet is *worse* (~6.3% less
// throughput, ~26% more dispatch load) because every scan then multigets
// two servers instead of one.
#include <cstdio>

#include "bench/experiment_common.h"

namespace rocksteady {
namespace {

constexpr TableId kTable = 1;
constexpr uint8_t kIndex = 1;
constexpr uint64_t kRecords = 200'000;
constexpr int kClients = 8;
constexpr Tick kMeasure = kSecond * 3 / 10;

enum class Layout { k1i1t, k2i1t, k2i2t };

const char* LayoutName(Layout layout) {
  switch (layout) {
    case Layout::k1i1t:
      return "1 Indexlet, 1 Tablet";
    case Layout::k2i1t:
      return "2 Indexlets, 1 Tablet";
    case Layout::k2i2t:
      return "2 Indexlets, 2 Tablets";
  }
  return "?";
}

struct Point {
  double offered_scans = 0;
  double achieved_objects = 0;  // Objects/s = completed scans x 4.
  double p50_us = 0;
  double p999_us = 0;
  double dispatch_load = 0;  // Total busy dispatch cores, cluster-wide.
};

Point RunPoint(Layout layout, double scans_per_second) {
  // Masters: 0,1 = tablets; 2,3 = indexlets.
  Cluster cluster(MakeConfig(4, kClients, 1.0));
  cluster.CreateTable(kTable, 0);
  if (layout == Layout::k2i2t) {
    cluster.coordinator().SplitTablet(kTable, 1ull << 63);
    // Audit-safe reassignment of the upper half to master 1.
    cluster.coordinator().ReassignTablet(kTable, 1ull << 63, ~0ull, cluster.master(1).id());
  }
  const std::string median_key = IndexScanActor::SecondaryKey(kRecords / 2);
  if (layout == Layout::k1i1t) {
    cluster.coordinator().CreateIndex(kTable, kIndex,
                                      {{.start_key = "", .end_key = "", .owner = 3}});
  } else {
    cluster.coordinator().CreateIndex(kTable, kIndex,
                                      {{.start_key = "", .end_key = median_key, .owner = 3},
                                       {.start_key = median_key, .end_key = "", .owner = 4}});
  }

  // Load records and index entries directly (population is not measured).
  const std::string value(100, 'v');
  for (uint64_t i = 0; i < kRecords; i++) {
    const std::string key = Cluster::MakeKey(i, 30);
    const KeyHash hash = HashKey(kTable, key);
    const ServerId owner = cluster.coordinator().OwnerOf(kTable, hash);
    cluster.coordinator().master(owner)->objects().Write(kTable, key, hash, value);
    const std::string secondary = IndexScanActor::SecondaryKey(i);
    for (const auto& indexlet_config : *cluster.coordinator().GetIndexConfig(kTable, kIndex)) {
      if (secondary >= indexlet_config.start_key &&
          (indexlet_config.end_key.empty() || secondary < indexlet_config.end_key)) {
        cluster.coordinator()
            .master(indexlet_config.owner)
            ->FindIndexlet(kTable, kIndex, secondary)
            ->Insert(secondary, hash);
        break;
      }
    }
  }

  // Warm tablet caches.
  for (int c = 0; c < kClients; c++) {
    cluster.client(static_cast<size_t>(c))
        .Read(kTable, Cluster::MakeKey(0, 30), [](Status, const std::string&) {});
  }
  cluster.Run();

  LatencyTimeline latency(kMeasure, 2);
  const Tick t0 = cluster.now();
  std::vector<std::unique_ptr<IndexScanActor>> actors;
  for (int c = 0; c < kClients; c++) {
    actors.push_back(std::make_unique<IndexScanActor>(
        &cluster.client(static_cast<size_t>(c)), kTable, kIndex, kRecords, 0.5,
        scans_per_second / kClients, t0 + kMeasure, &latency));
    actors.back()->Start();
  }
  for (size_t s = 0; s < cluster.num_masters(); s++) {
    cluster.master(s).cores().ResetBusyCounters();
  }
  // Bounded drain: overloaded points would otherwise spend minutes of
  // simulated time in client retry storms; completions past the drain
  // window don't count toward the measurement either way.
  cluster.RunUntil(t0 + kMeasure + kMeasure / 2);

  Point point;
  point.offered_scans = scans_per_second;
  uint64_t scans = 0;
  for (const auto& actor : actors) {
    scans += actor->completed();
  }
  point.achieved_objects =
      static_cast<double>(scans) * 4.0 / (static_cast<double>(kMeasure) / 1e9);
  const Histogram total = latency.Total();
  point.p50_us = static_cast<double>(total.Percentile(0.5)) / 1e3;
  point.p999_us = static_cast<double>(total.Percentile(0.999)) / 1e3;
  Tick dispatch_busy = 0;
  for (size_t s = 0; s < cluster.num_masters(); s++) {
    dispatch_busy += cluster.master(s).cores().total_dispatch_busy();
  }
  point.dispatch_load = static_cast<double>(dispatch_busy) / static_cast<double>(kMeasure);
  return point;
}

}  // namespace
}  // namespace rocksteady

int main() {
  using namespace rocksteady;
  std::printf("Figure 4: index scaling vs. read throughput\n");
  std::printf("============================================\n");
  std::printf("%llu records, 4-record Zipfian(0.5) index scans; objects/s = scans x 4.\n",
              static_cast<unsigned long long>(kRecords));
  std::printf("(paper: 1i/1t cheapest at low load; 2i/1t +54%% throughput at a 100 us\n");
  std::printf(" 99.9th; 2i/2t worse throughput and +26%% dispatch load)\n");
  for (Layout layout : {Layout::k1i1t, Layout::k2i1t, Layout::k2i2t}) {
    std::printf("\n--- %s ---\n", LayoutName(layout));
    std::printf("%16s %18s %10s %10s %16s\n", "offered scans/s", "Mobjects/s", "p50(us)",
                "p999(us)", "dispatch load");
    for (double scans : {100e3, 250e3, 400e3, 500e3, 600e3, 700e3}) {
      const Point p = RunPoint(layout, scans);
      std::printf("%16.0f %18.2f %10.1f %10.1f %16.2f\n", p.offered_scans,
                  p.achieved_objects / 1e6, p.p50_us, p.p999_us, p.dispatch_load);
    }
  }
  return 0;
}
