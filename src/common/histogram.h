// Log-bucketed latency histogram (HDR-histogram style).
//
// The paper reports medians and 99.9th percentiles of microsecond-scale
// latencies; a linear histogram would be either too coarse or too large, so
// buckets grow geometrically: 64 linear sub-buckets per power-of-two range,
// giving <= 1.6% relative error across nanoseconds..seconds at ~4 KB.
#ifndef ROCKSTEADY_SRC_COMMON_HISTOGRAM_H_
#define ROCKSTEADY_SRC_COMMON_HISTOGRAM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rocksteady {

class Histogram {
 public:
  Histogram();

  void Record(uint64_t value);
  void Merge(const Histogram& other);
  // Removes one sample of `value`, which must have been recorded. Buckets,
  // count and sum stay exact; min() and max() cannot be recomputed from the
  // buckets, so they stay bounds of what remains (reset once it is empty).
  void Remove(uint64_t value);
  void Reset();

  uint64_t count() const { return count_; }
  uint64_t min() const { return count_ == 0 ? 0 : min_; }
  uint64_t max() const { return max_; }
  double Mean() const;

  // Value at quantile q in [0, 1]; e.g. 0.5 for the median, 0.999 for the
  // 99.9th percentile. Returns 0 when empty.
  uint64_t Percentile(double q) const;

 private:
  static constexpr int kSubBucketBits = 6;  // 64 sub-buckets per octave.
  static constexpr uint64_t kSubBuckets = 1ull << kSubBucketBits;

  static size_t BucketIndex(uint64_t value);
  static uint64_t BucketUpperBound(size_t index);

  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = ~0ull;
  uint64_t max_ = 0;
};

}  // namespace rocksteady

#endif  // ROCKSTEADY_SRC_COMMON_HISTOGRAM_H_
