// Figure 4's experiment: one table with a secondary index, clients issuing
// 4-record index scans with Zipfian start keys, under one of three
// placements (see bench/fig04_index_scaling.cc). Shared with the overload
// test that bounds the past-the-knee points.
#ifndef ROCKSTEADY_BENCH_INDEX_SCALING_H_
#define ROCKSTEADY_BENCH_INDEX_SCALING_H_

#include <memory>
#include <string>
#include <vector>

#include "bench/experiment_common.h"

namespace rocksteady {
namespace index_scaling {

constexpr TableId kTable = 1;
constexpr uint8_t kIndex = 1;
constexpr uint64_t kRecords = 200'000;
constexpr int kClients = 8;

enum class Layout { k1i1t, k2i1t, k2i2t };

inline const char* LayoutName(Layout layout) {
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
  uint64_t retransmissions = 0;  // RPC retransmissions over the whole run.
  size_t events = 0;             // Events from the first scan on.
};

// Offers `scans_per_second` for `measure`, then drains for half as long
// again (completions past that window do not count either way).
inline Point RunPoint(Layout layout, double scans_per_second, Tick measure) {
  // Masters: 0,1 = tablets; 2,3 = indexlets.
  Cluster cluster(MakeConfig(4, kClients));
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

  LatencyTimeline latency(measure, 2);
  const Tick t0 = cluster.now();
  const size_t events_before = cluster.events_processed();
  std::vector<std::unique_ptr<IndexScanActor>> actors;
  for (int c = 0; c < kClients; c++) {
    actors.push_back(std::make_unique<IndexScanActor>(
        &cluster.client(static_cast<size_t>(c)), kTable, kIndex, kRecords, 0.5,
        scans_per_second / kClients, t0 + measure, &latency));
    actors.back()->Start();
  }
  for (size_t s = 0; s < cluster.num_masters(); s++) {
    cluster.master(s).cores().ResetBusyCounters();
  }
  // Bounded drain: overloaded points would otherwise spend minutes of
  // simulated time in client retry storms; completions past the drain
  // window don't count toward the measurement either way.
  cluster.RunUntil(t0 + measure + measure / 2);

  Point point;
  point.offered_scans = scans_per_second;
  uint64_t scans = 0;
  for (const auto& actor : actors) {
    scans += actor->completed();
  }
  point.achieved_objects =
      static_cast<double>(scans) * 4.0 / (static_cast<double>(measure) / 1e9);
  const Histogram total = latency.Total();
  point.p50_us = static_cast<double>(total.Percentile(0.5)) / 1e3;
  point.p999_us = static_cast<double>(total.Percentile(0.999)) / 1e3;
  Tick dispatch_busy = 0;
  for (size_t s = 0; s < cluster.num_masters(); s++) {
    dispatch_busy += cluster.master(s).cores().total_dispatch_busy();
  }
  point.dispatch_load = static_cast<double>(dispatch_busy) / static_cast<double>(measure);
  point.retransmissions = cluster.rpc().retransmissions();
  point.events = cluster.events_processed() - events_before;
  return point;
}

}  // namespace index_scaling
}  // namespace rocksteady

#endif  // ROCKSTEADY_BENCH_INDEX_SCALING_H_
