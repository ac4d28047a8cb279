// Unit tests for the hash table, including the bucket-range scan primitive
// Rocksteady's partitioned Pulls rely on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/common/hash.h"
#include "src/hashtable/hash_table.h"

namespace rocksteady {
namespace {

LogRef Ref(uint32_t segment, uint32_t offset) { return LogRef(segment, offset); }

TEST(HashTableTest, InsertLookupRemove) {
  HashTable table(8);
  EXPECT_TRUE(table.Insert(42, Ref(1, 100)));
  EXPECT_TRUE(table.Lookup(42) == Ref(1, 100));
  EXPECT_EQ(table.size(), 1u);
  EXPECT_TRUE(table.Remove(42));
  EXPECT_FALSE(table.Lookup(42).valid());
  EXPECT_EQ(table.size(), 0u);
  EXPECT_FALSE(table.Remove(42));
}

TEST(HashTableTest, InsertReplacesExisting) {
  HashTable table(8);
  EXPECT_TRUE(table.Insert(42, Ref(1, 100)));
  EXPECT_FALSE(table.Insert(42, Ref(2, 200)));  // Replace, not new.
  EXPECT_TRUE(table.Lookup(42) == Ref(2, 200));
  EXPECT_EQ(table.size(), 1u);
}

TEST(HashTableTest, MissingKeyReturnsInvalid) {
  HashTable table(8);
  EXPECT_FALSE(table.Lookup(12345).valid());
}

TEST(HashTableTest, HandlesBucketOverflowChains) {
  // Put 100 entries into a 2-bucket table: forces long overflow chains.
  HashTable table(1);
  for (uint64_t i = 0; i < 100; i++) {
    EXPECT_TRUE(table.Insert(i, Ref(1, static_cast<uint32_t>(i))));
  }
  EXPECT_EQ(table.size(), 100u);
  EXPECT_GT(table.MaxChainLength(), 1u);
  for (uint64_t i = 0; i < 100; i++) {
    ASSERT_TRUE(table.Lookup(i).valid()) << i;
    EXPECT_EQ(table.Lookup(i).offset(), i);
  }
  // Remove half; the rest must survive the slot shuffling.
  for (uint64_t i = 0; i < 100; i += 2) {
    EXPECT_TRUE(table.Remove(i));
  }
  for (uint64_t i = 0; i < 100; i++) {
    EXPECT_EQ(table.Lookup(i).valid(), i % 2 == 1) << i;
  }
}

TEST(HashTableTest, ReplaceIsConditional) {
  HashTable table(8);
  table.Insert(7, Ref(1, 10));
  EXPECT_FALSE(table.Replace(7, Ref(9, 9), Ref(2, 20)));  // Wrong expected.
  EXPECT_TRUE(table.Lookup(7) == Ref(1, 10));
  EXPECT_TRUE(table.Replace(7, Ref(1, 10), Ref(2, 20)));
  EXPECT_TRUE(table.Lookup(7) == Ref(2, 20));
  EXPECT_FALSE(table.Replace(99, Ref(1, 1), Ref(2, 2)));  // Absent key.
}

TEST(HashTableTest, BucketOfUsesTopBits) {
  HashTable table(4);  // 16 buckets.
  EXPECT_EQ(table.BucketOf(0), 0u);
  EXPECT_EQ(table.BucketOf(~0ull), 15u);
  EXPECT_EQ(table.BucketOf(1ull << 60), 1u);
  // Contiguous hash ranges map to contiguous bucket ranges.
  EXPECT_LE(table.BucketOf(0x1000000000000000ull), table.BucketOf(0x2000000000000000ull));
}

TEST(HashTableTest, ScanVisitsExactlyRangeOnce) {
  HashTable table(6);  // 64 buckets.
  constexpr uint64_t kEntries = 2'000;
  for (uint64_t i = 0; i < kEntries; i++) {
    table.Insert(Mix64(i), Ref(1, static_cast<uint32_t>(i)));
  }
  // Scan the two halves separately; union must be everything, no overlap.
  std::set<KeyHash> first_half;
  std::set<KeyHash> second_half;
  size_t cursor = table.ScanBuckets(
      32, 0, [&](KeyHash h, LogRef) { first_half.insert(h); }, [] { return true; });
  EXPECT_EQ(cursor, 32u);
  cursor = table.ScanBuckets(
      64, 32, [&](KeyHash h, LogRef) { second_half.insert(h); }, [] { return true; });
  EXPECT_EQ(cursor, 64u);
  EXPECT_EQ(first_half.size() + second_half.size(), kEntries);
  for (KeyHash h : first_half) {
    EXPECT_EQ(second_half.count(h), 0u);
    EXPECT_LT(table.BucketOf(h), 32u);
  }
}

TEST(HashTableTest, ScanPausesAtBucketBoundary) {
  HashTable table(4);
  for (uint64_t i = 0; i < 500; i++) {
    table.Insert(Mix64(i), Ref(1, static_cast<uint32_t>(i)));
  }
  // Budget-limited scan: stop after each bucket once >= 50 entries seen.
  std::set<KeyHash> seen;
  size_t cursor = 0;
  int scans = 0;
  while (cursor < 16) {
    size_t batch = 0;
    cursor = table.ScanBuckets(
        16, cursor, [&](KeyHash h, LogRef) { seen.insert(h); batch++; },
        [&] { return batch < 50; });
    scans++;
    ASSERT_LT(scans, 100);
  }
  EXPECT_EQ(seen.size(), 500u);
  EXPECT_GT(scans, 1);  // The budget actually paused the scan.
}

TEST(HashTableTest, ScanOfEmptyRange) {
  HashTable table(4);
  int visited = 0;
  const size_t cursor = table.ScanBuckets(
      8, 0, [&](KeyHash, LogRef) { visited++; }, [] { return true; });
  EXPECT_EQ(cursor, 8u);
  EXPECT_EQ(visited, 0);
}

TEST(HashTableTest, RemoveIfFiltersCorrectly) {
  HashTable table(8);
  for (uint64_t i = 0; i < 100; i++) {
    table.Insert(i, Ref(static_cast<uint32_t>(i % 3 + 1), 0));
  }
  const size_t removed = table.RemoveIf([](KeyHash, LogRef ref) { return ref.segment_id() == 2; });
  EXPECT_EQ(removed, 33u);
  EXPECT_EQ(table.size(), 67u);
  for (uint64_t i = 0; i < 100; i++) {
    EXPECT_EQ(table.Lookup(i).valid(), i % 3 != 1);
  }
}

TEST(HashTableTest, ForEachSeesAll) {
  HashTable table(10);
  for (uint64_t i = 0; i < 5'000; i++) {
    table.Insert(Mix64(i + 1), Ref(1, static_cast<uint32_t>(i)));
  }
  size_t count = 0;
  table.ForEach([&](KeyHash, LogRef) { count++; });
  EXPECT_EQ(count, 5'000u);
}

TEST(HashTableTest, LargeScaleInsertLookup) {
  HashTable table(16);
  constexpr uint64_t kEntries = 100'000;
  for (uint64_t i = 0; i < kEntries; i++) {
    table.Insert(Mix64(i), Ref(1 + static_cast<uint32_t>(i >> 16),
                               static_cast<uint32_t>(i & 0xFFFF)));
  }
  EXPECT_EQ(table.size(), kEntries);
  for (uint64_t i = 0; i < kEntries; i += 97) {
    const LogRef ref = table.Lookup(Mix64(i));
    ASSERT_TRUE(ref.valid());
    EXPECT_EQ(ref.offset(), i & 0xFFFF);
  }
}

// ------------------------------------------------- Store-pass lookahead.

struct ScanTrace {
  std::vector<std::pair<KeyHash, LogRef>> visits;
  std::vector<size_t> cursors;  // Returned by each (resumed) ScanBuckets.
};

// Scans [begin, end) in pauses of `budget` entries (checked at bucket
// boundaries, like a pull's byte budget), resuming at each returned cursor.
ScanTrace ScanInPauses(const HashTable& table, size_t begin, size_t end, size_t budget,
                       const Log* log) {
  ScanTrace trace;
  size_t cursor = begin;
  do {
    size_t batch = 0;
    cursor = table.ScanBuckets(
        end, cursor,
        [&](KeyHash hash, LogRef ref) {
          trace.visits.emplace_back(hash, ref);
          batch++;
        },
        [&] { return batch < budget; }, log);
    trace.cursors.push_back(cursor);
  } while (cursor < std::min(end, table.num_buckets()));
  return trace;
}

// A 128-bucket table (longer than HashTable::kBucketLookahead) over a log
// with a freed segment. ~12 entries per bucket overflow the 8 slots, so
// chains are common; refs resolve to live entries, to the freed segment, to
// a segment id past the log's registry, or are invalid.
class LookaheadScanTest : public ::testing::Test {
 protected:
  LookaheadScanTest() : log_(1024), table_(7) {
    std::vector<LogRef> live;
    for (uint64_t i = 0; i < 300; i++) {
      auto ref = log_.AppendObject(1, Mix64(i), "key" + std::to_string(i), std::string(40, 'v'), 1);
      live.push_back(*ref);
    }
    freed_ = live.front().segment_id();
    log_.FreeSegment(freed_);
    for (uint64_t i = 0; i < 1'500; i++) {
      LogRef ref = live[i % live.size()];
      switch (i % 10) {
        case 7:
          ref = LogRef(999'999, 0);
          break;
        case 8:
          ref = LogRef();
          break;
        default:
          break;
      }
      table_.Insert(Mix64(i + 1'000'000), ref);
    }
  }

  Log log_;
  HashTable table_;
  uint32_t freed_ = 0;
};

TEST_F(LookaheadScanTest, FixtureHasChainsAndStaleRefs) {
  EXPECT_GT(table_.MaxChainLength(), 1u);
  EXPECT_GT(table_.num_buckets(), HashTable::kBucketLookahead);
  EXPECT_EQ(log_.FindSegment(freed_), nullptr);
}

TEST_F(LookaheadScanTest, FullScanVisitsTheSameSequence) {
  const ScanTrace plain = ScanInPauses(table_, 0, table_.num_buckets(), SIZE_MAX, nullptr);
  const ScanTrace ahead = ScanInPauses(table_, 0, table_.num_buckets(), SIZE_MAX, &log_);
  EXPECT_EQ(plain.visits.size(), table_.size());
  EXPECT_EQ(ahead.visits, plain.visits);
  EXPECT_EQ(ahead.cursors, plain.cursors);
}

TEST_F(LookaheadScanTest, PausedScanStopsAndResumesAtTheSameBuckets) {
  for (size_t budget : {1, 5, 30, 200}) {
    const ScanTrace plain = ScanInPauses(table_, 3, 120, budget, nullptr);
    const ScanTrace ahead = ScanInPauses(table_, 3, 120, budget, &log_);
    EXPECT_GT(plain.cursors.size(), 1u) << "budget " << budget;
    EXPECT_EQ(ahead.visits, plain.visits) << "budget " << budget;
    EXPECT_EQ(ahead.cursors, plain.cursors) << "budget " << budget;
  }
}

TEST_F(LookaheadScanTest, RangesShorterThanTheLookahead) {
  // Every range shorter than kBucketLookahead, at every start: the
  // lookahead must stop at the range's end, including ranges whose end runs
  // past the table.
  const size_t buckets = table_.num_buckets();
  for (size_t length = 0; length < HashTable::kBucketLookahead; length++) {
    for (size_t begin = 0; begin <= buckets; begin++) {
      const ScanTrace plain = ScanInPauses(table_, begin, begin + length, 10, nullptr);
      const ScanTrace ahead = ScanInPauses(table_, begin, begin + length, 10, &log_);
      ASSERT_EQ(ahead.visits, plain.visits) << "begin " << begin << " length " << length;
      ASSERT_EQ(ahead.cursors, plain.cursors) << "begin " << begin << " length " << length;
    }
  }
}

TEST_F(LookaheadScanTest, RemoveIfRemovesTheSameEntries) {
  HashTable copy(7);
  table_.ForEach([&](KeyHash hash, LogRef ref) { copy.Insert(hash, ref); });
  const auto doomed = [](KeyHash hash, LogRef ref) { return ref.valid() && (hash & 1) != 0; };
  const size_t removed = table_.RemoveIf(doomed, 10, 100, &log_);
  EXPECT_EQ(removed, copy.RemoveIf(doomed, 10, 100));
  EXPECT_GT(removed, 0u);
  EXPECT_EQ(ScanInPauses(table_, 0, 128, SIZE_MAX, nullptr).visits,
            ScanInPauses(copy, 0, 128, SIZE_MAX, nullptr).visits);
}

// The hash table's slots, in the order a scan (and so a pull) visits them.
std::vector<std::pair<KeyHash, LogRef>> Slots(const HashTable& table) {
  return ScanInPauses(table, 0, table.num_buckets(), SIZE_MAX, nullptr).visits;
}

// What RemoveIf did before it removed bucket by bucket: collect every doomed
// hash of the range, then Remove() each.
size_t CollectThenRemove(HashTable* table, const std::function<bool(KeyHash, LogRef)>& pred,
                         size_t first_bucket, size_t end_bucket) {
  std::vector<KeyHash> doomed;
  table->ScanBuckets(
      end_bucket, first_bucket,
      [&](KeyHash hash, LogRef ref) {
        if (pred(hash, ref)) {
          doomed.push_back(hash);
        }
      },
      [] { return true; });
  for (const KeyHash hash : doomed) {
    table->Remove(hash);
  }
  return doomed.size();
}

TEST(HashTableTest, RemoveIfFillsHolesFromTheTailInVisitOrder) {
  // Five entries of one bucket, a, b and e doomed. Removing in visit order
  // with tail fill leaves [c, d]; an in-place sweep would leave [d, c].
  HashTable table(1);
  for (KeyHash hash = 1; hash <= 5; hash++) {
    table.Insert(hash, Ref(1, static_cast<uint32_t>(hash)));
  }
  const size_t removed =
      table.RemoveIf([](KeyHash hash, LogRef) { return hash == 1 || hash == 2 || hash == 5; });
  EXPECT_EQ(removed, 3u);
  const std::vector<std::pair<KeyHash, LogRef>> expected = {{3, Ref(1, 3)}, {4, Ref(1, 4)}};
  EXPECT_EQ(Slots(table), expected);
}

TEST(HashTableTest, RemoveIfLeavesTheSlotsCollectThenRemoveLeaves) {
  // Random tables with overflow chains, random predicates and bucket ranges:
  // the slot order after RemoveIf must equal the collect-then-Remove
  // reference's, or later pulls would copy records in another order.
  uint64_t seed = 0x5eed;
  auto next = [&] { return seed = Mix64(seed + 1); };
  for (int round = 0; round < 200; round++) {
    const int log2_buckets = 1 + static_cast<int>(next() % 6);
    HashTable table(log2_buckets);
    HashTable reference(log2_buckets);
    const size_t entries = next() % 600;
    for (size_t i = 0; i < entries; i++) {
      const KeyHash hash = next();
      const LogRef ref = Ref(1 + static_cast<uint32_t>(next() % 4), static_cast<uint32_t>(i));
      table.Insert(hash, ref);
      reference.Insert(hash, ref);
    }
    // Some holes before the drop, so chains are not all freshly packed.
    const std::vector<std::pair<KeyHash, LogRef>> before = Slots(table);
    for (size_t i = 0; i < before.size(); i += 5) {
      table.Remove(before[i].first);
      reference.Remove(before[i].first);
    }
    const uint64_t salt = next();
    const uint64_t keep_one_in = 1 + next() % 4;
    const auto pred = [&](KeyHash hash, LogRef ref) {
      return Mix64(hash ^ salt) % keep_one_in != 0 || ref.segment_id() == 3;
    };
    const size_t buckets = table.num_buckets();
    const size_t first = next() % (buckets + 1);
    const size_t end = first + next() % (buckets + 2 - first);
    const size_t removed = table.RemoveIf(pred, first, end);
    EXPECT_EQ(removed, CollectThenRemove(&reference, pred, first, end)) << "round " << round;
    ASSERT_EQ(Slots(table), Slots(reference)) << "round " << round;
    EXPECT_EQ(table.size(), reference.size());
    AuditReport report;
    table.AuditInvariants(&report);
    EXPECT_TRUE(report.ok()) << report.Summary();
  }
}

// Property-style sweep: across table sizes, scans partitioned into P pieces
// cover everything exactly once — the invariant Rocksteady's parallel Pull
// partitioning depends on.
class HashTablePartitionTest : public ::testing::TestWithParam<int> {};

TEST_P(HashTablePartitionTest, PartitionedScansCoverExactly) {
  const int partitions = GetParam();
  HashTable table(8);  // 256 buckets.
  constexpr uint64_t kEntries = 3'000;
  for (uint64_t i = 0; i < kEntries; i++) {
    table.Insert(Mix64(i * 31 + 7), Ref(1, static_cast<uint32_t>(i)));
  }
  std::set<KeyHash> seen;
  const size_t buckets = table.num_buckets();
  for (int p = 0; p < partitions; p++) {
    const size_t begin = buckets * p / partitions;
    const size_t end = buckets * (p + 1) / partitions;
    table.ScanBuckets(
        end, begin,
        [&](KeyHash h, LogRef) {
          EXPECT_TRUE(seen.insert(h).second) << "entry visited twice";
        },
        [] { return true; });
  }
  EXPECT_EQ(seen.size(), kEntries);
}

INSTANTIATE_TEST_SUITE_P(Partitions, HashTablePartitionTest,
                         ::testing::Values(1, 2, 3, 4, 7, 8, 16, 64));

}  // namespace
}  // namespace rocksteady
