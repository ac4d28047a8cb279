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

#include "bench/index_scaling.h"

int main() {
  using namespace rocksteady;
  using namespace rocksteady::index_scaling;
  constexpr Tick kMeasure = kSecond * 3 / 10;
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
      const Point p = RunPoint(layout, scans, kMeasure);
      std::printf("%16.0f %18.2f %10.1f %10.1f %16.2f\n", p.offered_scans,
                  p.achieved_objects / 1e6, p.p50_us, p.p999_us, p.dispatch_load);
    }
  }
  return 0;
}
