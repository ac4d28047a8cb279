#include "src/common/timeseries.h"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace rocksteady {

LatencyTimeline::LatencyTimeline(Tick window, size_t max_windows) : window_(window) {
  assert(window > 0);
  windows_.resize(max_windows);
}

void LatencyTimeline::Record(Tick completion_time, Tick latency) {
  const size_t i = static_cast<size_t>(completion_time / window_);
  if (i < windows_.size()) {
    windows_[i].Record(latency);
  }
}

double LatencyTimeline::Throughput(size_t i) const {
  return static_cast<double>(windows_[i].count()) * static_cast<double>(kSecond) /
         static_cast<double>(window_);
}

Histogram LatencyTimeline::Total() const {
  Histogram total;
  for (const auto& w : windows_) {
    total.Merge(w);
  }
  return total;
}

UtilizationTimeline::UtilizationTimeline(Tick window, size_t max_windows) : window_(window) {
  assert(window > 0);
  busy_.resize(max_windows, 0);
}

void UtilizationTimeline::AddBusy(Tick start, Tick duration) {
  while (duration > 0) {
    const size_t i = static_cast<size_t>(start / window_);
    if (i >= busy_.size()) {
      return;
    }
    const Tick window_end = (static_cast<Tick>(i) + 1) * window_;
    const Tick chunk = std::min<Tick>(duration, window_end - start);
    busy_[i] += chunk;
    start += chunk;
    duration -= chunk;
  }
}

SlidingLatencyTracker::SlidingLatencyTracker(Tick bucket_span, size_t num_buckets)
    : bucket_span_(bucket_span) {
  assert(bucket_span > 0);
  assert(num_buckets > 0);
  slots_.resize(num_buckets);
}

void SlidingLatencyTracker::Advance(Tick now) {
  const uint64_t target = static_cast<uint64_t>(now / bucket_span_);
  if (target <= current_) {
    return;
  }
  if (target - current_ >= slots_.size()) {
    // Quiet period longer than the whole ring: everything is stale.
    for (auto& slot : slots_) {
      slot.latencies.clear();
      slot.max = 0;
    }
    window_.Reset();
  } else {
    for (uint64_t i = current_ + 1; i <= target; ++i) {
      Slot& expired = slots_[i % slots_.size()];
      for (const Tick latency : expired.latencies) {
        window_.Remove(latency);
      }
      expired.latencies.clear();
      expired.max = 0;
    }
  }
  current_ = target;
}

void SlidingLatencyTracker::Record(Tick now, Tick latency) {
  Advance(now);
  Slot& slot = slots_[current_ % slots_.size()];
  slot.latencies.push_back(latency);
  slot.max = std::max(slot.max, latency);
  window_.Record(latency);
}

uint64_t SlidingLatencyTracker::RecentPercentile(Tick now, double q) {
  Advance(now);
  if (window_.count() == 0) {
    return 0;
  }
  // window_ holds exactly the slots' samples, so it finds the bucket a
  // merge of them would; its max() is a bound at or above their true max,
  // so clamping to the true max returns exactly what the merge returns.
  Tick max = 0;
  for (const auto& slot : slots_) {
    max = std::max(max, slot.max);
  }
  return std::min(window_.Percentile(q), max);
}

uint64_t SlidingLatencyTracker::RecentCount(Tick now) {
  Advance(now);
  return window_.count();
}

CounterTimeline::CounterTimeline(Tick window, size_t max_windows) : window_(window) {
  assert(window > 0);
  counts_.resize(max_windows, 0);
}

void CounterTimeline::Add(Tick when, uint64_t amount) {
  const size_t i = static_cast<size_t>(when / window_);
  if (i < counts_.size()) {
    counts_[i] += amount;
  }
}

uint64_t CounterTimeline::TotalCount() const {
  return std::accumulate(counts_.begin(), counts_.end(), uint64_t{0});
}

}  // namespace rocksteady
