#include "src/common/histogram.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace rocksteady {

Histogram::Histogram() {
  // 64 octaves x 64 sub-buckets covers the full uint64_t range.
  buckets_.resize((64 - kSubBucketBits + 1) * kSubBuckets, 0);
}

size_t Histogram::BucketIndex(uint64_t value) {
  if (value < kSubBuckets) {
    return static_cast<size_t>(value);
  }
  const int octave = 63 - std::countl_zero(value);  // Highest set bit.
  const int shift = octave - kSubBucketBits + 1;
  const uint64_t sub = value >> shift;  // In [kSubBuckets/2.. kSubBuckets).
  return static_cast<size_t>(octave - kSubBucketBits + 1) * kSubBuckets + sub;
}

uint64_t Histogram::BucketUpperBound(size_t index) {
  const size_t octave_group = index / kSubBuckets;
  const uint64_t sub = index % kSubBuckets;
  if (octave_group == 0) {
    return sub;
  }
  const int shift = static_cast<int>(octave_group) - 1 + 1;
  // Inverse of BucketIndex: top of the bucket's value range.
  return ((sub + 1) << shift) - 1;
}

void Histogram::Record(uint64_t value) {
  const size_t index = BucketIndex(value);
  assert(index < buckets_.size());
  buckets_[index]++;
  count_++;
  sum_ += value;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

void Histogram::Merge(const Histogram& other) {
  assert(buckets_.size() == other.buckets_.size());
  for (size_t i = 0; i < buckets_.size(); i++) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void Histogram::Remove(uint64_t value) {
  const size_t index = BucketIndex(value);
  assert(index < buckets_.size() && buckets_[index] > 0);
  buckets_[index]--;
  count_--;
  sum_ -= value;
  if (count_ == 0) {
    min_ = ~0ull;
    max_ = 0;
  }
}

void Histogram::Reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ = 0;
  min_ = ~0ull;
  max_ = 0;
}

double Histogram::Mean() const {
  return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
}

uint64_t Histogram::Percentile(double q) const {
  if (count_ == 0) {
    return 0;
  }
  q = std::clamp(q, 0.0, 1.0);
  const uint64_t target = static_cast<uint64_t>(q * static_cast<double>(count_ - 1)) + 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); i++) {
    seen += buckets_[i];
    if (seen >= target) {
      return std::min(BucketUpperBound(i), max_);
    }
  }
  return max_;
}

}  // namespace rocksteady
