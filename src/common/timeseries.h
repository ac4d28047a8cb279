// Windowed time-series recorders for the experiment timelines.
//
// Figures 9-14 plot running throughput, running median / 99.9th percentile
// latency, and per-window core utilization against experiment time. These
// helpers bucket samples into fixed windows of simulated time and emit one
// row per window.
#ifndef ROCKSTEADY_SRC_COMMON_TIMESERIES_H_
#define ROCKSTEADY_SRC_COMMON_TIMESERIES_H_

#include <cstdint>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/types.h"

namespace rocksteady {

// Per-window latency distribution + completion count.
class LatencyTimeline {
 public:
  LatencyTimeline(Tick window, size_t max_windows);

  void Record(Tick completion_time, Tick latency);

  size_t NumWindows() const { return windows_.size(); }
  Tick WindowStart(size_t i) const { return static_cast<Tick>(i) * window_; }
  Tick window() const { return window_; }

  uint64_t Count(size_t i) const { return windows_[i].count(); }
  // Completions per second in window i.
  double Throughput(size_t i) const;
  uint64_t Percentile(size_t i, double q) const { return windows_[i].Percentile(q); }

  // Distribution over the whole run.
  Histogram Total() const;

 private:
  Tick window_;
  std::vector<Histogram> windows_;
};

// Per-window accumulation of busy time for a set of cores; reports average
// active cores (busy_time / window) per window, matching Figure 11's
// "Utilization (Active Cores)" axis.
class UtilizationTimeline {
 public:
  UtilizationTimeline(Tick window, size_t max_windows);

  // Charge `duration` of busy time starting at `start` (split across window
  // boundaries as needed).
  void AddBusy(Tick start, Tick duration);

  size_t NumWindows() const { return busy_.size(); }
  Tick window() const { return window_; }
  // Mean number of active cores during window i.
  double ActiveCores(size_t i) const {
    return static_cast<double>(busy_[i]) / static_cast<double>(window_);
  }

 private:
  Tick window_;
  std::vector<uint64_t> busy_;
};

// Sliding-window latency tracker for overload signals. Unlike
// LatencyTimeline (which keeps every window of a run for plotting), this
// keeps only the last `num_buckets` sub-windows of `bucket_span` simulated
// time each, recycled in place, and answers "recent p99.9" over them —
// memory bounded by one window's samples regardless of run length. A query
// reads a running window histogram rather than merging the sub-windows:
// the source piggybacks this signal on every pull reply so the migration
// target can pace itself (§4.2's "adaptively... based on load").
class SlidingLatencyTracker {
 public:
  SlidingLatencyTracker(Tick bucket_span, size_t num_buckets);

  void Record(Tick now, Tick latency);

  // Percentile over samples from roughly the last bucket_span * num_buckets
  // of simulated time. Returns 0 when no recent samples exist.
  uint64_t RecentPercentile(Tick now, double q);
  uint64_t RecentCount(Tick now);

  Tick span() const { return bucket_span_ * static_cast<Tick>(slots_.size()); }

 private:
  // Rotates the ring forward so every slot holds a window overlapping
  // [now - span, now]; skipped-over slots are reset.
  void Advance(Tick now);

  // One sub-window's samples, kept so they can leave window_ when it
  // expires.
  struct Slot {
    std::vector<Tick> latencies;
    Tick max = 0;
  };

  Tick bucket_span_;
  std::vector<Slot> slots_;
  // Every in-window sample, kept as samples arrive and slots expire, so a
  // query merges nothing. Its max() is only a bound (see
  // Histogram::Remove); RecentPercentile takes the exact one from the
  // slots.
  Histogram window_;
  uint64_t current_ = 0;  // Absolute index (now / bucket_span_) of the newest slot.
};

// Per-window scalar accumulation (e.g. bytes migrated per window).
class CounterTimeline {
 public:
  CounterTimeline(Tick window, size_t max_windows);

  void Add(Tick when, uint64_t amount);

  size_t NumWindows() const { return counts_.size(); }
  Tick window() const { return window_; }
  uint64_t Count(size_t i) const { return counts_[i]; }
  // Per-second rate in window i.
  double Rate(size_t i) const {
    return static_cast<double>(counts_[i]) * static_cast<double>(kSecond) /
           static_cast<double>(window_);
  }
  uint64_t TotalCount() const;

 private:
  Tick window_;
  std::vector<uint64_t> counts_;
};

}  // namespace rocksteady

#endif  // ROCKSTEADY_SRC_COMMON_TIMESERIES_H_
