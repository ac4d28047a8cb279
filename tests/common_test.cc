// Unit tests for src/common: hashing, CRC32C, Zipfian, histogram, timelines.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/common/crc32c.h"
#include "src/common/hash.h"
#include "src/common/histogram.h"
#include "src/common/random.h"
#include "src/common/timeseries.h"
#include "src/common/zipfian.h"

namespace rocksteady {
namespace {

// ---------------------------------------------------------------- Hashing.

TEST(HashTest, DeterministicAcrossCalls) {
  const std::string key = "user:12345";
  EXPECT_EQ(HashKey(key), HashKey(key));
  EXPECT_EQ(Murmur3_64(key.data(), key.size(), 7), Murmur3_64(key.data(), key.size(), 7));
}

TEST(HashTest, SeedChangesResult) {
  const std::string key = "user:12345";
  EXPECT_NE(Murmur3_64(key.data(), key.size(), 0), Murmur3_64(key.data(), key.size(), 1));
}

TEST(HashTest, EmptyAndShortKeys) {
  // All lengths 0..32 must hash without reading out of bounds and produce
  // distinct values for distinct content.
  std::set<uint64_t> seen;
  std::string key;
  for (int len = 0; len <= 32; len++) {
    seen.insert(HashKey(key));
    key.push_back(static_cast<char>('a' + len % 26));
  }
  EXPECT_EQ(seen.size(), 33u);
}

TEST(HashTest, AvalancheOnSingleBitFlip) {
  // Flipping one input bit should flip roughly half the output bits.
  std::string key = "0123456789abcdef";
  const uint64_t base = HashKey(key);
  int total_flipped = 0;
  int trials = 0;
  for (size_t byte = 0; byte < key.size(); byte++) {
    for (int bit = 0; bit < 8; bit++) {
      key[byte] ^= static_cast<char>(1 << bit);
      total_flipped += std::popcount(base ^ HashKey(key));
      key[byte] ^= static_cast<char>(1 << bit);
      trials++;
    }
  }
  const double mean_flipped = static_cast<double>(total_flipped) / trials;
  EXPECT_GT(mean_flipped, 24.0);
  EXPECT_LT(mean_flipped, 40.0);
}

TEST(HashTest, UniformBucketSpread) {
  // Keys hashed into 128 buckets by top bits should spread evenly.
  constexpr int kBuckets = 128;
  constexpr int kKeys = 64'000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kKeys; i++) {
    const std::string key = "key" + std::to_string(i);
    counts[HashKey(key) >> 57]++;
  }
  const auto [min_it, max_it] = std::minmax_element(counts.begin(), counts.end());
  EXPECT_GT(*min_it, kKeys / kBuckets / 2);
  EXPECT_LT(*max_it, kKeys / kBuckets * 2);
}

// ---------------------------------------------------------------- CRC32C.

TEST(Crc32cTest, KnownVectors) {
  // Standard CRC32C test vector: "123456789" -> 0xE3069283.
  const char digits[] = "123456789";
  EXPECT_EQ(Crc32c(0, digits, 9), 0xE3069283u);
  // 32 zero bytes -> 0x8A9136AA (iSCSI test vector).
  const std::vector<uint8_t> zeros(32, 0);
  EXPECT_EQ(Crc32c(0, zeros.data(), zeros.size()), 0x8A9136AAu);
}

TEST(Crc32cTest, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog, repeatedly";
  const uint32_t oneshot = Crc32c(0, data.data(), data.size());
  for (size_t split = 0; split <= data.size(); split += 7) {
    uint32_t crc = Crc32c(0, data.data(), split);
    crc = Crc32c(crc, data.data() + split, data.size() - split);
    EXPECT_EQ(crc, oneshot) << "split at " << split;
  }
}

TEST(Crc32cTest, UnalignedStartMatches) {
  std::vector<uint8_t> buffer(128);
  for (size_t i = 0; i < buffer.size(); i++) {
    buffer[i] = static_cast<uint8_t>(i * 37);
  }
  const uint32_t reference = Crc32c(0, buffer.data() + 1, 64);
  // Copy to an aligned buffer and compare.
  std::vector<uint8_t> aligned(buffer.begin() + 1, buffer.begin() + 65);
  EXPECT_EQ(Crc32c(0, aligned.data(), aligned.size()), reference);
}

TEST(Crc32cTest, AccumulatorMatchesFreeFunction) {
  const uint64_t value = 0xdeadbeefcafef00dULL;
  Crc32cAccumulator acc;
  acc.UpdateValue(value).Update("tail", 4);
  uint32_t crc = Crc32c(0, &value, sizeof(value));
  crc = Crc32c(crc, "tail", 4);
  EXPECT_EQ(acc.result(), crc);
}

TEST(Crc32cTest, DetectsSingleBitCorruption) {
  std::vector<uint8_t> data(100, 0xAB);
  const uint32_t good = Crc32c(0, data.data(), data.size());
  data[50] ^= 0x01;
  EXPECT_NE(Crc32c(0, data.data(), data.size()), good);
}

// ---------------------------------------------------------------- Random.

TEST(RandomTest, DeterministicForSeed) {
  Random a(42);
  Random b(42);
  for (int i = 0; i < 100; i++) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RandomTest, DifferentSeedsDiverge) {
  Random a(1);
  Random b(2);
  int same = 0;
  for (int i = 0; i < 100; i++) {
    same += (a.Next() == b.Next());
  }
  EXPECT_EQ(same, 0);
}

TEST(RandomTest, UniformRangeBounds) {
  Random rng(7);
  for (int i = 0; i < 10'000; i++) {
    const uint64_t v = rng.UniformRange(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(RandomTest, NextDoubleInUnitInterval) {
  Random rng(9);
  for (int i = 0; i < 10'000; i++) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

// ---------------------------------------------------------------- Zipfian.

TEST(ZipfianTest, UniformWhenThetaZero) {
  ZipfianGenerator gen(1000, 0.0);
  Random rng(3);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100'000; i++) {
    counts[gen.Next(rng) / 100]++;
  }
  for (int c : counts) {
    EXPECT_GT(c, 8'000);
    EXPECT_LT(c, 12'000);
  }
}

TEST(ZipfianTest, RanksWithinBounds) {
  for (double theta : {0.0, 0.5, 0.99, 1.5}) {
    ZipfianGenerator gen(1'000'000, theta);
    Random rng(11);
    for (int i = 0; i < 10'000; i++) {
      EXPECT_LT(gen.Next(rng), 1'000'000u) << "theta " << theta;
    }
  }
}

TEST(ZipfianTest, SkewIncreasesWithTheta) {
  // The fraction of accesses landing on the top 1% of ranks must grow
  // with theta.
  auto top1_fraction = [](double theta) {
    ZipfianGenerator gen(100'000, theta);
    Random rng(5);
    int hits = 0;
    constexpr int kSamples = 200'000;
    for (int i = 0; i < kSamples; i++) {
      hits += (gen.Next(rng) < 1'000);
    }
    return static_cast<double>(hits) / kSamples;
  };
  const double f0 = top1_fraction(0.0);
  const double f05 = top1_fraction(0.5);
  const double f099 = top1_fraction(0.99);
  const double f15 = top1_fraction(1.5);
  EXPECT_LT(f0, 0.02);
  EXPECT_GT(f05, f0 * 2);
  EXPECT_GT(f099, f05 * 2);
  EXPECT_GT(f15, f099);
  // YCSB theta=0.99: top 1% of keys draw a large share of traffic.
  EXPECT_GT(f099, 0.3);
}

TEST(ZipfianTest, RankZeroIsMostPopular) {
  ZipfianGenerator gen(10'000, 0.99);
  Random rng(13);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 100'000; i++) {
    counts[gen.Next(rng)]++;
  }
  const auto most = std::max_element(counts.begin(), counts.end(),
                                     [](auto& a, auto& b) { return a.second < b.second; });
  EXPECT_EQ(most->first, 0u);
}

TEST(ZipfianTest, ScrambledSpreadsHotKeys) {
  // Scrambled Zipfian should place the hottest keys all over the key space
  // rather than clustered at low ids.
  ScrambledZipfianGenerator gen(1'000'000, 0.99);
  Random rng(17);
  int low_half = 0;
  constexpr int kSamples = 100'000;
  for (int i = 0; i < kSamples; i++) {
    low_half += (gen.Next(rng) < 500'000);
  }
  const double fraction = static_cast<double>(low_half) / kSamples;
  EXPECT_GT(fraction, 0.40);
  EXPECT_LT(fraction, 0.60);
}

// -------------------------------------------------------------- Histogram.

TEST(HistogramTest, EmptyHistogram) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(0.5), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST(HistogramTest, SingleValue) {
  Histogram h;
  h.Record(12'345);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 12'345u);
  EXPECT_EQ(h.max(), 12'345u);
  // Bucketed value must be within the bucket's relative error (~1.6%).
  EXPECT_NEAR(static_cast<double>(h.Percentile(0.5)), 12'345.0, 12'345.0 * 0.02);
}

TEST(HistogramTest, PercentilesOfUniformSequence) {
  Histogram h;
  for (uint64_t v = 1; v <= 10'000; v++) {
    h.Record(v);
  }
  EXPECT_NEAR(static_cast<double>(h.Percentile(0.5)), 5'000.0, 5'000.0 * 0.03);
  EXPECT_NEAR(static_cast<double>(h.Percentile(0.99)), 9'900.0, 9'900.0 * 0.03);
  EXPECT_NEAR(static_cast<double>(h.Percentile(0.999)), 9'990.0, 9'990.0 * 0.03);
  EXPECT_EQ(h.Percentile(1.0), 10'000u);
  EXPECT_NEAR(h.Mean(), 5'000.5, 1.0);
}

TEST(HistogramTest, SmallValuesAreExact) {
  // Values below 64 land in unit-width buckets.
  Histogram h;
  for (uint64_t v = 0; v < 64; v++) {
    h.Record(v);
  }
  EXPECT_EQ(h.Percentile(0.0), 0u);
  EXPECT_EQ(h.Percentile(1.0), 63u);
}

TEST(HistogramTest, MergeCombinesCounts) {
  Histogram a;
  Histogram b;
  a.Record(100);
  a.Record(200);
  b.Record(1'000'000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.max(), 1'000'000u);
  EXPECT_EQ(a.min(), 100u);
}

TEST(HistogramTest, ResetClears) {
  Histogram h;
  h.Record(5);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(0.5), 0u);
}

TEST(HistogramTest, LargeValues) {
  Histogram h;
  const uint64_t big = 123'456'789'012ULL;
  h.Record(big);
  EXPECT_NEAR(static_cast<double>(h.Percentile(0.5)), static_cast<double>(big), big * 0.02);
}

// -------------------------------------------------------------- Timelines.

TEST(LatencyTimelineTest, BucketsByCompletionTime) {
  LatencyTimeline timeline(kSecond, 10);
  timeline.Record(kSecond / 2, 5'000);       // Window 0.
  timeline.Record(kSecond + 1, 7'000);       // Window 1.
  timeline.Record(kSecond * 9 + 5, 9'000);   // Window 9.
  timeline.Record(kSecond * 100, 11'000);    // Out of range: dropped.
  EXPECT_EQ(timeline.Count(0), 1u);
  EXPECT_EQ(timeline.Count(1), 1u);
  EXPECT_EQ(timeline.Count(9), 1u);
  EXPECT_EQ(timeline.Total().count(), 3u);
}

TEST(LatencyTimelineTest, ThroughputPerWindow) {
  LatencyTimeline timeline(kSecond / 2, 4);
  for (int i = 0; i < 1'000; i++) {
    timeline.Record(kSecond / 4, 1'000);
  }
  EXPECT_DOUBLE_EQ(timeline.Throughput(0), 2'000.0);  // 1000 ops / 0.5 s.
}

TEST(UtilizationTimelineTest, SplitsAcrossWindows) {
  UtilizationTimeline util(1'000, 4);
  util.AddBusy(500, 1'000);  // 500 in window 0, 500 in window 1.
  EXPECT_DOUBLE_EQ(util.ActiveCores(0), 0.5);
  EXPECT_DOUBLE_EQ(util.ActiveCores(1), 0.5);
  EXPECT_DOUBLE_EQ(util.ActiveCores(2), 0.0);
}

TEST(UtilizationTimelineTest, MultipleCoresAccumulate) {
  UtilizationTimeline util(1'000, 2);
  util.AddBusy(0, 1'000);
  util.AddBusy(0, 1'000);
  util.AddBusy(0, 500);
  EXPECT_DOUBLE_EQ(util.ActiveCores(0), 2.5);
}

TEST(SlidingLatencyTrackerTest, EmptyReturnsZero) {
  SlidingLatencyTracker tracker(100, 4);
  EXPECT_EQ(tracker.RecentPercentile(0, 0.999), 0u);
  EXPECT_EQ(tracker.RecentCount(123), 0u);
}

TEST(SlidingLatencyTrackerTest, PercentileOverRecentWindow) {
  SlidingLatencyTracker tracker(100, 4);
  for (uint64_t i = 1; i <= 100; i++) {
    tracker.Record(50, static_cast<Tick>(i));
  }
  EXPECT_EQ(tracker.RecentCount(50), 100u);
  // Small values are exact in the histogram, so the tail is sharp.
  EXPECT_GE(tracker.RecentPercentile(50, 0.99), 95u);
  EXPECT_LE(tracker.RecentPercentile(50, 0.50), 60u);
}

TEST(SlidingLatencyTrackerTest, OldSamplesAgeOut) {
  SlidingLatencyTracker tracker(100, 4);
  tracker.Record(0, 1'000'000);  // A horrible latency, long ago.
  EXPECT_GE(tracker.RecentPercentile(0, 0.999), 1'000'000u / 2);
  // Far past the whole window: the old sample must be gone, not still
  // inflating the tail.
  tracker.Record(10'000, 5);
  EXPECT_EQ(tracker.RecentCount(10'000), 1u);
  EXPECT_LT(tracker.RecentPercentile(10'000, 0.999), 1'000u);
}

TEST(SlidingLatencyTrackerTest, RotatesThroughAdjacentBuckets) {
  SlidingLatencyTracker tracker(100, 2);  // 200-tick window.
  tracker.Record(10, 7);
  tracker.Record(110, 9);  // Next bucket; first still in window.
  EXPECT_EQ(tracker.RecentCount(110), 2u);
  // Two buckets later the first sample's slot has been recycled.
  tracker.Record(310, 11);
  EXPECT_LE(tracker.RecentCount(310), 2u);
}

TEST(SlidingLatencyTrackerTest, RunningWindowMatchesMergingTheSlots) {
  // The tracker keeps a running window total instead of merging its slots
  // per query. Against a reference that merges every in-window sample
  // afresh, over random record/query sequences whose clock steps range
  // from within a slot to quiet gaps longer than the whole ring, it must
  // answer every percentile and count exactly.
  constexpr Tick kSpan = 100;
  constexpr size_t kSlots = 8;
  const double quantiles[] = {0.0, 0.5, 0.9, 0.99, 0.999, 1.0};
  for (uint64_t seed = 1; seed <= 20; seed++) {
    Random rng(seed);
    SlidingLatencyTracker tracker(kSpan, kSlots);
    std::vector<std::pair<uint64_t, Tick>> samples;  // (slot, latency)
    uint64_t newest = 0;
    Tick now = 0;
    for (int step = 0; step < 2'000; step++) {
      const uint64_t jump = rng.Uniform(100);
      if (jump < 80) {
        now += rng.Uniform(kSpan / 4);
      } else if (jump < 97) {
        now += rng.Uniform(3 * kSpan);
      } else {
        now += kSpan * kSlots + rng.Uniform(10 * kSpan * kSlots);  // Quiet gap.
      }
      newest = std::max<uint64_t>(newest, now / kSpan);
      if (rng.Uniform(4) != 0) {
        const Tick latency = rng.Uniform(uint64_t{1} << rng.Uniform(40));
        tracker.Record(now, latency);
        samples.emplace_back(now / kSpan, latency);
        continue;
      }
      Histogram merged;
      for (const auto& [slot, latency] : samples) {
        if (slot + kSlots > newest) {
          merged.Record(latency);
        }
      }
      ASSERT_EQ(tracker.RecentCount(now), merged.count()) << "seed " << seed << " step " << step;
      for (double q : quantiles) {
        ASSERT_EQ(tracker.RecentPercentile(now, q), merged.Percentile(q))
            << "seed " << seed << " step " << step << " q " << q;
      }
      const double q = rng.NextDouble();
      ASSERT_EQ(tracker.RecentPercentile(now, q), merged.Percentile(q))
          << "seed " << seed << " step " << step << " q " << q;
    }
  }
}

TEST(CounterTimelineTest, RatesAndTotals) {
  CounterTimeline counter(kSecond, 3);
  counter.Add(0, 100);
  counter.Add(kSecond / 2, 200);
  counter.Add(kSecond * 2, 50);
  EXPECT_EQ(counter.Count(0), 300u);
  EXPECT_DOUBLE_EQ(counter.Rate(0), 300.0);
  EXPECT_EQ(counter.TotalCount(), 350u);
}

}  // namespace
}  // namespace rocksteady
