// Unit tests for tablets and the ObjectManager (read/write/remove, replay
// semantics, version horizons, cleaner integration).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/common/hash.h"
#include "src/store/object_manager.h"
#include "src/store/tablet.h"

namespace rocksteady {
namespace {

ObjectManagerOptions SmallOptions() {
  ObjectManagerOptions options;
  options.hash_table_log2_buckets = 10;
  options.segment_size = 4096;
  return options;
}

// ---------------------------------------------------------------- Tablets.

TEST(TabletTest, ContainsChecksRangeAndTable) {
  Tablet tablet{.table_id = 1, .start_hash = 100, .end_hash = 200};
  EXPECT_TRUE(tablet.Contains(1, 100));
  EXPECT_TRUE(tablet.Contains(1, 200));
  EXPECT_TRUE(tablet.Contains(1, 150));
  EXPECT_FALSE(tablet.Contains(1, 99));
  EXPECT_FALSE(tablet.Contains(1, 201));
  EXPECT_FALSE(tablet.Contains(2, 150));
}

TEST(TabletManagerTest, FindLocatesOwningTablet) {
  TabletManager tablets;
  tablets.Add({.table_id = 1, .start_hash = 0, .end_hash = 999});
  tablets.Add({.table_id = 1, .start_hash = 1000, .end_hash = 1999});
  tablets.Add({.table_id = 2, .start_hash = 0, .end_hash = ~0ull});
  EXPECT_EQ(tablets.Find(1, 500)->start_hash, 0u);
  EXPECT_EQ(tablets.Find(1, 1500)->start_hash, 1000u);
  EXPECT_EQ(tablets.Find(2, 12345)->table_id, 2u);
  EXPECT_EQ(tablets.Find(1, 5000), nullptr);
  EXPECT_EQ(tablets.Find(3, 0), nullptr);
}

TEST(TabletManagerTest, SplitAtArbitraryHash) {
  // Lazy partitioning: a split is metadata-only and can happen at any hash.
  TabletManager tablets;
  tablets.Add({.table_id = 1, .start_hash = 0, .end_hash = ~0ull});
  ASSERT_EQ(tablets.Split(1, 1ull << 63), Status::kOk);
  ASSERT_EQ(tablets.tablets().size(), 2u);
  const Tablet* low = tablets.Find(1, 0);
  const Tablet* high = tablets.Find(1, ~0ull);
  ASSERT_NE(low, nullptr);
  ASSERT_NE(high, nullptr);
  EXPECT_EQ(low->end_hash, (1ull << 63) - 1);
  EXPECT_EQ(high->start_hash, 1ull << 63);
  // Splitting again at the same point is a no-op.
  EXPECT_EQ(tablets.Split(1, 1ull << 63), Status::kOk);
  EXPECT_EQ(tablets.tablets().size(), 2u);
}

TEST(TabletManagerTest, SplitMissingTableFails) {
  TabletManager tablets;
  EXPECT_EQ(tablets.Split(9, 100), Status::kTableNotFound);
}

TEST(TabletManagerTest, RemoveExactRange) {
  TabletManager tablets;
  tablets.Add({.table_id = 1, .start_hash = 0, .end_hash = 999});
  EXPECT_FALSE(tablets.Remove(1, 0, 500));  // Not an exact match.
  EXPECT_TRUE(tablets.Remove(1, 0, 999));
  EXPECT_EQ(tablets.Find(1, 10), nullptr);
}

// ------------------------------------------------------------ ObjectManager.

TEST(ObjectManagerTest, WriteReadRoundTrip) {
  ObjectManager om(SmallOptions());
  const KeyHash h = HashKey("alice");
  auto version = om.Write(1, "alice", h, "in wonderland");
  ASSERT_TRUE(version.ok());
  EXPECT_EQ(*version, 1u);
  auto read = om.Read(1, "alice", h);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->value, "in wonderland");
  EXPECT_EQ(read->version, 1u);
}

TEST(ObjectManagerTest, OverwriteBumpsVersion) {
  ObjectManager om(SmallOptions());
  const KeyHash h = HashKey("k");
  om.Write(1, "k", h, "v1");
  auto v2 = om.Write(1, "k", h, "v2");
  ASSERT_TRUE(v2.ok());
  EXPECT_GT(*v2, 1u);
  auto read = om.Read(1, "k", h);
  EXPECT_EQ(read->value, "v2");
  EXPECT_EQ(read->version, *v2);
}

TEST(ObjectManagerTest, ReadMissingKey) {
  ObjectManager om(SmallOptions());
  EXPECT_EQ(om.Read(1, "ghost", HashKey("ghost")).status(), Status::kObjectNotFound);
}

TEST(ObjectManagerTest, RemoveDeletesAndIsIdempotent) {
  ObjectManager om(SmallOptions());
  const KeyHash h = HashKey("k");
  om.Write(1, "k", h, "v");
  ASSERT_TRUE(om.Remove(1, "k", h).ok());
  EXPECT_EQ(om.Read(1, "k", h).status(), Status::kObjectNotFound);
  EXPECT_EQ(om.Remove(1, "k", h).status(), Status::kObjectNotFound);
}

TEST(ObjectManagerTest, WriteAfterRemoveGetsHigherVersion) {
  ObjectManager om(SmallOptions());
  const KeyHash h = HashKey("k");
  auto v1 = om.Write(1, "k", h, "v1");
  om.Remove(1, "k", h);
  auto v2 = om.Write(1, "k", h, "v2");
  EXPECT_GT(*v2, *v1);  // Versions never move backwards, even through deletes.
}

TEST(ObjectManagerTest, ReadByHashIgnoresKey) {
  ObjectManager om(SmallOptions());
  const KeyHash h = HashKey("indexed-key");
  om.Write(1, "indexed-key", h, "payload");
  auto read = om.ReadByHash(1, h);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->value, "payload");
  EXPECT_EQ(read->key, "indexed-key");
}

TEST(ObjectManagerTest, ReadWrongTableFails) {
  ObjectManager om(SmallOptions());
  const KeyHash h = HashKey("k");
  om.Write(1, "k", h, "v");
  EXPECT_FALSE(om.Read(2, "k", h).ok());
  EXPECT_FALSE(om.ReadByHash(2, h).ok());
}

TEST(ObjectManagerTest, ManyObjectsSurviveSegmentRolls) {
  ObjectManager om(SmallOptions());
  for (int i = 0; i < 1'000; i++) {
    const std::string key = "key" + std::to_string(i);
    ASSERT_TRUE(om.Write(1, key, HashKey(key), "value" + std::to_string(i)).ok());
  }
  EXPECT_GT(om.log().segments().size(), 2u);
  for (int i = 0; i < 1'000; i++) {
    const std::string key = "key" + std::to_string(i);
    auto read = om.Read(1, key, HashKey(key));
    ASSERT_TRUE(read.ok()) << key;
    EXPECT_EQ(read->value, "value" + std::to_string(i));
  }
}

// ------------------------------------------------------------------ Replay.

LogEntryView MakeObjectEntry(std::vector<uint8_t>& buffer, TableId table, KeyHash hash,
                             std::string_view key, std::string_view value, Version version) {
  LogEntryHeader header;
  header.type = LogEntryType::kObject;
  header.table_id = table;
  header.key_hash = hash;
  header.version = version;
  buffer.resize(sizeof(LogEntryHeader) + key.size() + value.size());
  WriteEntry(buffer.data(), header, key, value);
  LogEntryView view;
  EXPECT_TRUE(ReadEntry(buffer.data(), buffer.size(), &view));
  return view;
}

LogEntryView MakeTombstoneEntry(std::vector<uint8_t>& buffer, TableId table, KeyHash hash,
                                std::string_view key, Version version) {
  LogEntryHeader header;
  header.type = LogEntryType::kTombstone;
  header.table_id = table;
  header.key_hash = hash;
  header.version = version;
  buffer.resize(sizeof(LogEntryHeader) + key.size());
  WriteEntry(buffer.data(), header, key, {});
  LogEntryView view;
  EXPECT_TRUE(ReadEntry(buffer.data(), buffer.size(), &view));
  return view;
}

TEST(ObjectManagerReplayTest, IncorporatesNewRecord) {
  ObjectManager om(SmallOptions());
  std::vector<uint8_t> buffer;
  const auto entry = MakeObjectEntry(buffer, 1, HashKey("k"), "k", "migrated", 5);
  EXPECT_TRUE(om.Replay(entry, nullptr));
  auto read = om.Read(1, "k", HashKey("k"));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->value, "migrated");
  EXPECT_EQ(read->version, 5u);
}

TEST(ObjectManagerReplayTest, StaleRecordDropped) {
  // A write at the target (higher version) must not be clobbered by a
  // migrated record arriving later (lower version). This is the invariant
  // behind Rocksteady's immediate-ownership-transfer + any-order replay.
  ObjectManager om(SmallOptions());
  om.RaiseVersionHorizon(100);  // Seeded from the source's horizon.
  const KeyHash h = HashKey("k");
  auto fresh = om.Write(1, "k", h, "written-at-target");
  ASSERT_TRUE(fresh.ok());
  EXPECT_GT(*fresh, 100u);
  std::vector<uint8_t> buffer;
  const auto stale = MakeObjectEntry(buffer, 1, h, "k", "old-source-copy", 7);
  EXPECT_FALSE(om.Replay(stale, nullptr));
  EXPECT_EQ(om.Read(1, "k", h)->value, "written-at-target");
}

TEST(ObjectManagerReplayTest, ReplayIsIdempotent) {
  ObjectManager om(SmallOptions());
  std::vector<uint8_t> buffer;
  const auto entry = MakeObjectEntry(buffer, 1, HashKey("k"), "k", "once", 3);
  EXPECT_TRUE(om.Replay(entry, nullptr));
  EXPECT_FALSE(om.Replay(entry, nullptr));  // Duplicate: version not newer.
  EXPECT_EQ(om.object_count(), 1u);
}

TEST(ObjectManagerReplayTest, NewerReplayWins) {
  ObjectManager om(SmallOptions());
  std::vector<uint8_t> b1;
  std::vector<uint8_t> b2;
  const KeyHash h = HashKey("k");
  EXPECT_TRUE(om.Replay(MakeObjectEntry(b1, 1, h, "k", "v3", 3), nullptr));
  EXPECT_TRUE(om.Replay(MakeObjectEntry(b2, 1, h, "k", "v9", 9), nullptr));
  EXPECT_EQ(om.Read(1, "k", h)->value, "v9");
}

TEST(ObjectManagerReplayTest, OutOfOrderReplayConverges) {
  // Any-order parallel replay: applying versions 9 then 3 equals 3 then 9.
  ObjectManager a(SmallOptions());
  ObjectManager b(SmallOptions());
  std::vector<uint8_t> b1;
  std::vector<uint8_t> b2;
  const KeyHash h = HashKey("k");
  const auto v3 = MakeObjectEntry(b1, 1, h, "k", "v3", 3);
  const auto v9 = MakeObjectEntry(b2, 1, h, "k", "v9", 9);
  a.Replay(v3, nullptr);
  a.Replay(v9, nullptr);
  b.Replay(v9, nullptr);
  b.Replay(v3, nullptr);
  EXPECT_EQ(a.Read(1, "k", h)->value, b.Read(1, "k", h)->value);
  EXPECT_EQ(a.Read(1, "k", h)->version, b.Read(1, "k", h)->version);
}

TEST(ObjectManagerReplayTest, TombstoneReplayDeletes) {
  ObjectManager om(SmallOptions());
  const KeyHash h = HashKey("k");
  std::vector<uint8_t> b1;
  std::vector<uint8_t> b2;
  om.Replay(MakeObjectEntry(b1, 1, h, "k", "v", 3), nullptr);
  EXPECT_TRUE(om.Replay(MakeTombstoneEntry(b2, 1, h, "k", 5), nullptr));
  EXPECT_EQ(om.Read(1, "k", h).status(), Status::kObjectNotFound);
}

TEST(ObjectManagerReplayTest, StaleTombstoneIgnored) {
  ObjectManager om(SmallOptions());
  const KeyHash h = HashKey("k");
  std::vector<uint8_t> b1;
  std::vector<uint8_t> b2;
  om.Replay(MakeObjectEntry(b1, 1, h, "k", "v7", 7), nullptr);
  EXPECT_FALSE(om.Replay(MakeTombstoneEntry(b2, 1, h, "k", 5), nullptr));
  EXPECT_EQ(om.Read(1, "k", h)->value, "v7");
}

TEST(ObjectManagerReplayTest, ReplayIntoSideLog) {
  ObjectManager om(SmallOptions());
  SideLog side(&om.log());
  std::vector<uint8_t> buffer;
  const KeyHash h = HashKey("k");
  EXPECT_TRUE(om.Replay(MakeObjectEntry(buffer, 1, h, "k", "via-side", 2), &side));
  // Readable immediately, before commit.
  EXPECT_EQ(om.Read(1, "k", h)->value, "via-side");
  side.Commit();
  EXPECT_EQ(om.Read(1, "k", h)->value, "via-side");
}

TEST(ObjectManagerReplayTest, SideLogEntryIsTheSourceEntryByteForByte) {
  // A migrated record is pulled as the source's serialized entry and
  // replayed verbatim: the side-log copy is byte-equal to the source's
  // entry (header, key, value, version, checksum) and reads back valid.
  ObjectManager source(SmallOptions());
  ObjectManager target(SmallOptions());
  SideLog side(&target.log());
  const KeyHash object_hash = HashKey("object");
  const KeyHash deleted_hash = HashKey("deleted");
  ASSERT_TRUE(source.Write(1, "object", object_hash, std::string(100, 'v')).ok());
  LogRef tombstone;
  ASSERT_TRUE(source.Remove(1, "deleted", deleted_hash, &tombstone, true).ok());
  for (const LogRef source_ref : {source.hash_table().Lookup(object_hash), tombstone}) {
    LogEntryView entry;
    ASSERT_TRUE(source.log().Read(source_ref, &entry));
    ASSERT_TRUE(target.Replay(entry, &side));
    const LogRef replayed = target.hash_table().Lookup(entry.key_hash());
    LogEntryView copy;
    ASSERT_TRUE(target.log().Read(replayed, &copy));
    ASSERT_EQ(copy.header.TotalLength(), entry.header.TotalLength());
    EXPECT_EQ(std::memcmp(copy.raw, entry.raw, entry.header.TotalLength()), 0);
    LogEntryView reparsed;
    EXPECT_TRUE(ReadEntry(copy.raw, copy.header.TotalLength(), &reparsed));
    EXPECT_EQ(reparsed.type(), entry.type());
  }
  EXPECT_EQ(side.pending_entries(), 2u);
  EXPECT_EQ(target.Read(1, "object", object_hash)->value, std::string(100, 'v'));
}

TEST(ObjectManagerReplayTest, DropSideLogEntriesOnAbort) {
  ObjectManager om(SmallOptions());
  SideLog side(&om.log());
  std::vector<uint8_t> buffer;
  for (int i = 0; i < 20; i++) {
    const std::string key = "k" + std::to_string(i);
    const auto entry = MakeObjectEntry(buffer, 1, HashKey(key), key, "v", 2);
    ASSERT_TRUE(om.Replay(entry, &side));
  }
  EXPECT_EQ(om.object_count(), 20u);
  const size_t dropped = om.DropSideLogEntries(side);
  side.Abort();
  EXPECT_EQ(dropped, 20u);
  EXPECT_EQ(om.object_count(), 0u);
}

TEST(ObjectManagerTest, DropTabletEntriesRemovesRange) {
  ObjectManager om(SmallOptions());
  size_t in_upper_half = 0;
  for (int i = 0; i < 200; i++) {
    const std::string key = "key" + std::to_string(i);
    const KeyHash h = HashKey(key);
    om.Write(1, key, h, "v");
    in_upper_half += (h >= (1ull << 63));
  }
  const size_t dropped = om.DropTabletEntries(1, 1ull << 63, ~0ull);
  EXPECT_EQ(dropped, in_upper_half);
  EXPECT_EQ(om.object_count(), 200 - in_upper_half);
}

// Two tables share every bucket of the dropped range: only table 1's
// entries inside the range go, each marked dead with its whole length.
TEST(ObjectManagerTest, DropTabletEntriesSparesOtherTablesInTheRange) {
  ObjectManager om(SmallOptions());
  const KeyHash start = 1ull << 62;
  const KeyHash end = (3ull << 62) - 1;
  auto in_range = [&](KeyHash h) { return h >= start && h <= end; };
  size_t doomed = 0;
  uint64_t doomed_bytes = 0;
  size_t other_table_in_range = 0;
  for (int i = 0; i < 200; i++) {
    const std::string key = "key" + std::to_string(i);
    const std::string value = "value" + std::string(static_cast<size_t>(i % 7), 'x');
    ASSERT_TRUE(om.Write(1, key, HashKey(key), value).ok());
    if (in_range(HashKey(key))) {
      doomed++;
      doomed_bytes += sizeof(LogEntryHeader) + key.size() + value.size();
    }
    const std::string other = "other" + std::to_string(i);
    ASSERT_TRUE(om.Write(2, other, HashKey(other), "v").ok());
    other_table_in_range += in_range(HashKey(other));
  }
  ASSERT_GT(doomed, 0u);
  ASSERT_GT(other_table_in_range, 0u);
  const uint64_t dead_before = om.log().stats().dead_bytes;

  EXPECT_EQ(om.DropTabletEntries(1, start, end), doomed);
  EXPECT_EQ(om.log().stats().dead_bytes - dead_before, doomed_bytes);
  EXPECT_EQ(om.object_count(), 400 - doomed);
  for (int i = 0; i < 200; i++) {
    const std::string key = "key" + std::to_string(i);
    EXPECT_EQ(om.Read(1, key, HashKey(key)).ok(), !in_range(HashKey(key))) << key;
    const std::string other = "other" + std::to_string(i);
    EXPECT_TRUE(om.Read(2, other, HashKey(other)).ok()) << other;
  }
}

TEST(ObjectManagerTest, CleanerPreservesLiveData) {
  ObjectManager om(SmallOptions());
  // Three rounds of overwrites -> two thirds of entries dead.
  for (int round = 0; round < 3; round++) {
    for (int i = 0; i < 300; i++) {
      const std::string key = "key" + std::to_string(i);
      ASSERT_TRUE(om.Write(1, key, HashKey(key), "round" + std::to_string(round)).ok());
    }
  }
  size_t cleaned = 0;
  for (int i = 0; i < 50; i++) {
    cleaned += om.RunCleaner();
  }
  EXPECT_GT(cleaned, 0u);
  for (int i = 0; i < 300; i++) {
    const std::string key = "key" + std::to_string(i);
    auto read = om.Read(1, key, HashKey(key));
    ASSERT_TRUE(read.ok()) << key;
    EXPECT_EQ(read->value, "round2");
  }
}

TEST(ObjectManagerTest, VersionHorizonMonotone) {
  ObjectManager om(SmallOptions());
  EXPECT_EQ(om.version_horizon(), 0u);
  om.Write(1, "a", HashKey("a"), "v");
  const Version after_one = om.version_horizon();
  EXPECT_GE(after_one, 1u);
  om.RaiseVersionHorizon(1'000);
  EXPECT_EQ(om.version_horizon(), 1'000u);
  om.RaiseVersionHorizon(5);  // Lower: no effect.
  EXPECT_EQ(om.version_horizon(), 1'000u);
  auto v = om.Write(1, "b", HashKey("b"), "v");
  EXPECT_GT(*v, 1'000u);
}


TEST(ObjectManagerTest, TombstoneIfMissingGuardsAgainstResurrection) {
  // A migration target deletes a record that has not arrived yet; the
  // tombstone must survive (referenced) so the later-arriving older copy
  // loses the version comparison.
  ObjectManager om(SmallOptions());
  om.RaiseVersionHorizon(50);  // Seeded from the source.
  const KeyHash h = HashKey("k");
  auto version = om.Remove(1, "k", h, nullptr, /*tombstone_if_missing=*/true);
  ASSERT_TRUE(version.ok());
  EXPECT_GT(*version, 50u);
  // The old copy arrives via replay with a lower version: dropped.
  std::vector<uint8_t> buffer;
  const auto stale = MakeObjectEntry(buffer, 1, h, "k", "old-copy", 7);
  EXPECT_FALSE(om.Replay(stale, nullptr));
  EXPECT_EQ(om.Read(1, "k", h).status(), Status::kObjectNotFound);
}

TEST(ObjectManagerTest, RemoveWithoutFlagStillNotFound) {
  ObjectManager om(SmallOptions());
  EXPECT_EQ(om.Remove(1, "ghost", HashKey("ghost")).status(), Status::kObjectNotFound);
}

TEST(ObjectManagerTest, WriteAfterMissingDeleteWins) {
  ObjectManager om(SmallOptions());
  const KeyHash h = HashKey("k");
  om.Remove(1, "k", h, nullptr, /*tombstone_if_missing=*/true);
  auto version = om.Write(1, "k", h, "resurrected-on-purpose");
  ASSERT_TRUE(version.ok());
  EXPECT_EQ(om.Read(1, "k", h)->value, "resurrected-on-purpose");
}

TEST(ObjectManagerTest, ReferencedTombstoneSurvivesCleaning) {
  ObjectManager om(SmallOptions());
  const KeyHash guard = HashKey("guarded");
  om.RaiseVersionHorizon(100);
  om.Remove(1, "guarded", guard, nullptr, /*tombstone_if_missing=*/true);
  // Churn enough data to force segment rolls and cleaning.
  for (int round = 0; round < 3; round++) {
    for (int i = 0; i < 200; i++) {
      const std::string key = "churn" + std::to_string(i);
      om.Write(1, key, HashKey(key), std::string(40, 'x'));
    }
  }
  for (int i = 0; i < 50; i++) {
    om.RunCleaner();
  }
  // The guard still works: a stale copy arriving now must be dropped.
  std::vector<uint8_t> buffer;
  const auto stale = MakeObjectEntry(buffer, 1, guard, "guarded", "stale", 9);
  EXPECT_FALSE(om.Replay(stale, nullptr));
  EXPECT_EQ(om.Read(1, "guarded", guard).status(), Status::kObjectNotFound);
}

TEST(ObjectManagerReplayTest, TombstoneThenOlderObjectAnyOrder) {
  // Order-free replay: tombstone(v5) then object(v3) must equal
  // object(v3) then tombstone(v5).
  std::vector<uint8_t> b1;
  std::vector<uint8_t> b2;
  const KeyHash h = HashKey("k");
  for (bool tombstone_first : {true, false}) {
    ObjectManager om(SmallOptions());
    const auto obj = MakeObjectEntry(b1, 1, h, "k", "v3", 3);
    const auto tomb = MakeTombstoneEntry(b2, 1, h, "k", 5);
    if (tombstone_first) {
      om.Replay(tomb, nullptr);
      om.Replay(obj, nullptr);
    } else {
      om.Replay(obj, nullptr);
      om.Replay(tomb, nullptr);
    }
    EXPECT_EQ(om.Read(1, "k", h).status(), Status::kObjectNotFound)
        << "tombstone_first=" << tombstone_first;
  }
}

// ------------------------------------------------- Pull scan and replay.

// 16 buckets holding ~40 entries each (chains of five or six buckets) over
// small segments.
ObjectManagerOptions ChainedOptions() {
  ObjectManagerOptions options;
  options.hash_table_log2_buckets = 4;
  options.segment_size = 8192;
  return options;
}

// A budget no pull of these stores reaches (the copy is sized for it up
// front, so not SIZE_MAX).
constexpr size_t kWholeRange = 1 << 20;

std::string ValueOf(int i) { return "value" + std::string(static_cast<size_t>(i % 13), 'x'); }

// Table 1 objects (keys "key<i>", some overwritten), table 2 objects in the
// same buckets, and referenced tombstones of table 1 keys that were never
// written. Returns the version horizon before the overwrites.
Version FillChainedStore(ObjectManager* om) {
  for (int i = 0; i < 400; i++) {
    const std::string key = "key" + std::to_string(i);
    EXPECT_TRUE(om->Write(1, key, HashKey(key), ValueOf(i)).ok());
    const std::string other = "other" + std::to_string(i);
    EXPECT_TRUE(om->Write(2, other, HashKey(other), "v").ok());
  }
  for (int i = 0; i < 40; i++) {
    const std::string ghost = "ghost" + std::to_string(i);
    EXPECT_TRUE(om->Remove(1, ghost, HashKey(ghost), nullptr, true).ok());
  }
  const Version horizon = om->version_horizon();
  for (int i = 0; i < 400; i += 7) {
    const std::string key = "key" + std::to_string(i);
    EXPECT_TRUE(om->Write(1, key, HashKey(key), "rewritten").ok());
  }
  return horizon;
}

// The Pull handler's scan as it was written before it moved into the store:
// a reference for PullRange.
ObjectManager::PullBatch ReferencePull(const ObjectManager& om, TableId table, KeyHash start,
                                       KeyHash end, Version min_version, size_t cursor,
                                       size_t end_bucket, size_t budget) {
  std::vector<uint8_t> out;
  ObjectManager::PullBatch batch;
  batch.next_cursor = om.hash_table().ScanBuckets(
      end_bucket, cursor,
      [&](KeyHash hash, LogRef ref) {
        if (hash < start || hash > end) {
          return;
        }
        LogEntryView entry;
        if (!om.log().Read(ref, &entry) || entry.table_id() != table ||
            entry.type() != LogEntryType::kObject) {
          return;
        }
        if (entry.version() <= min_version) {
          return;
        }
        out.insert(out.end(), entry.raw, entry.raw + entry.header.TotalLength());
        batch.record_count++;
      },
      [&] { return out.size() < budget; });
  ByteSliceBuilder builder;
  if (!out.empty()) {
    builder.Append(out.data(), out.size());
  }
  batch.records = builder.Finish();
  batch.done = batch.next_cursor >= end_bucket;
  return batch;
}

std::vector<uint8_t> Bytes(const ByteSlice& slice) {
  return std::vector<uint8_t>(slice.begin(), slice.begin() + slice.size());
}

// Key hashes of the entries in `bytes`, in order.
std::vector<KeyHash> HashesIn(std::span<const uint8_t> bytes) {
  std::vector<KeyHash> hashes;
  EXPECT_EQ(WalkEntries(bytes,
                        [&](size_t, const LogEntryView& entry) {
                          hashes.push_back(entry.key_hash());
                          return true;
                        }),
            bytes.size());
  return hashes;
}

// The version of the first table 1 object from "key200" on whose hash lies in
// [start, end]: a delta round at that version skips it and everything older.
Version VersionInRange(const ObjectManager& om, KeyHash start, KeyHash end) {
  for (int i = 200; i < 400; i++) {
    const std::string key = "key" + std::to_string(i);
    if (HashKey(key) >= start && HashKey(key) <= end) {
      return om.Read(1, key, HashKey(key))->version;
    }
  }
  ADD_FAILURE() << "no object in range";
  return 0;
}

TEST(PullRangeTest, CopiesOnlyNewerObjectsOfTheTableInTheRange) {
  ObjectManager om(ChainedOptions());
  const Version horizon = FillChainedStore(&om);
  ASSERT_GT(om.hash_table().MaxChainLength(), 1u);
  // Neither bound falls on a bucket boundary, so both boundary buckets hold
  // hashes outside the range.
  const KeyHash start = (3ull << 60) + 12345;
  const KeyHash end = (11ull << 60) + 777;
  const size_t first = om.hash_table().BucketOf(start);
  const size_t end_bucket = om.hash_table().BucketOf(end) + 1;
  const Version middle = VersionInRange(om, start, end);
  for (const Version min_version : {Version{0}, middle, horizon}) {
    std::set<KeyHash> expected;
    for (int i = 0; i < 400; i++) {
      const std::string key = "key" + std::to_string(i);
      const KeyHash hash = HashKey(key);
      if (hash >= start && hash <= end && om.Read(1, key, hash)->version > min_version) {
        expected.insert(hash);
      }
    }
    ASSERT_GT(expected.size(), 0u);
    const ObjectManager::PullBatch pulled =
        om.PullRange(1, start, end, min_version, first, end_bucket, kWholeRange);
    EXPECT_TRUE(pulled.done);
    EXPECT_EQ(pulled.next_cursor, end_bucket);
    const std::vector<KeyHash> hashes = HashesIn(pulled.records);
    EXPECT_EQ(pulled.record_count, hashes.size());
    EXPECT_EQ(std::set<KeyHash>(hashes.begin(), hashes.end()), expected)
        << "min_version " << min_version;
  }
}

TEST(PullRangeTest, PausesAtBucketBoundariesOnceTheBudgetIsReached) {
  ObjectManager om(ChainedOptions());
  FillChainedStore(&om);
  const size_t buckets = om.hash_table().num_buckets();
  for (const size_t budget : {size_t{1}, size_t{500}, size_t{3000}}) {
    size_t cursor = 0;
    size_t pulls = 0;
    size_t records = 0;
    bool done = false;
    while (!done) {
      const ObjectManager::PullBatch pulled =
          om.PullRange(1, 0, ~KeyHash{0}, 0, cursor, buckets, budget);
      ASSERT_GT(pulled.next_cursor, cursor);
      // Every bucket before the last one scanned left the copy under budget;
      // the last one reached it, unless the range ran out.
      const ObjectManager::PullBatch shorter =
          om.PullRange(1, 0, ~KeyHash{0}, 0, cursor, pulled.next_cursor - 1, kWholeRange);
      EXPECT_LT(shorter.records.size(), budget);
      EXPECT_TRUE(pulled.records.size() >= budget || pulled.done);
      done = pulled.done;
      EXPECT_EQ(done, pulled.next_cursor == buckets);
      cursor = pulled.next_cursor;
      records += pulled.record_count;
      pulls++;
    }
    EXPECT_EQ(records, 400u) << "budget " << budget;
    if (budget == 1) {
      EXPECT_EQ(pulls, buckets);  // Every bucket holds a table 1 object.
    }
  }
}

TEST(PullRangeTest, MatchesTheHandlersScanByteForByte) {
  ObjectManager om(ChainedOptions());
  const Version horizon = FillChainedStore(&om);
  const size_t buckets = om.hash_table().num_buckets();
  const KeyHash start = (5ull << 59) + 99;
  const KeyHash end = (27ull << 59) + 5;
  const Version middle = VersionInRange(om, start, end);
  for (const Version min_version : {Version{0}, middle, horizon}) {
    for (const size_t budget : {size_t{1}, size_t{700}, size_t{20 * 1024}}) {
      size_t cursor = om.hash_table().BucketOf(start);
      const size_t end_bucket = std::min(buckets, om.hash_table().BucketOf(end) + 1);
      bool done = false;
      while (!done) {
        const ObjectManager::PullBatch pulled =
            om.PullRange(1, start, end, min_version, cursor, end_bucket, budget);
        const ObjectManager::PullBatch reference =
            ReferencePull(om, 1, start, end, min_version, cursor, end_bucket, budget);
        ASSERT_EQ(Bytes(pulled.records), Bytes(reference.records));
        ASSERT_EQ(pulled.record_count, reference.record_count);
        ASSERT_EQ(pulled.next_cursor, reference.next_cursor);
        ASSERT_EQ(pulled.done, reference.done);
        cursor = pulled.next_cursor;
        done = pulled.done;
      }
    }
  }
}

TEST(EstimateRangeBytesTest, MatchesAFullTableSumPerTablet) {
  ObjectManager om(ChainedOptions());
  FillChainedStore(&om);
  auto full_table_sum = [&](TableId table, KeyHash start, KeyHash end) {
    uint64_t bytes = 0;
    om.hash_table().ForEach([&](KeyHash hash, LogRef ref) {
      LogEntryView entry;
      if (hash >= start && hash <= end && om.log().Read(ref, &entry) &&
          entry.table_id() == table && entry.type() == LogEntryType::kObject) {
        bytes += entry.header.TotalLength();
      }
    });
    return bytes;
  };
  // Five tablets per table, split mid-bucket, plus single-bucket and empty
  // ranges.
  const std::vector<KeyHash> splits = {0, (1ull << 61) + 3, (5ull << 60) + 17, 1ull << 63,
                                       (13ull << 60) - 1};
  for (const TableId table : {TableId{1}, TableId{2}, TableId{3}}) {
    uint64_t total = 0;
    for (size_t t = 0; t < splits.size(); t++) {
      const KeyHash start = splits[t];
      const KeyHash end = t + 1 < splits.size() ? splits[t + 1] - 1 : ~KeyHash{0};
      const uint64_t bytes = om.EstimateRangeBytes(table, start, end);
      EXPECT_EQ(bytes, full_table_sum(table, start, end)) << "table " << table << " tablet " << t;
      total += bytes;
    }
    EXPECT_EQ(total, full_table_sum(table, 0, ~KeyHash{0}));
    EXPECT_EQ(total > 0, table != 3);
    EXPECT_EQ(om.EstimateRangeBytes(table, 1ull << 62, (1ull << 62) + 1000),
              full_table_sum(table, 1ull << 62, (1ull << 62) + 1000));
  }
  EXPECT_EQ(om.EstimateRangeBytes(1, 1ull << 63, 1ull << 62), 0u);  // start > end.
}

// Serializes `entries` back to back, as a pull reply carries them.
struct EntrySpec {
  LogEntryType type;
  TableId table;
  std::string key;
  Version version;
};
std::vector<uint8_t> Serialize(const std::vector<EntrySpec>& specs) {
  std::vector<uint8_t> bytes;
  for (const EntrySpec& spec : specs) {
    LogEntryHeader header;
    header.type = spec.type;
    header.table_id = spec.table;
    header.key_hash = HashKey(spec.key);
    header.version = spec.version;
    const std::string value = spec.type == LogEntryType::kObject ? "v" + spec.key : "";
    const size_t offset = bytes.size();
    bytes.resize(offset + sizeof(LogEntryHeader) + spec.key.size() + value.size());
    WriteEntry(bytes.data() + offset, header, spec.key, value);
  }
  return bytes;
}

std::vector<EntrySpec> MixedSpecs() {
  std::vector<EntrySpec> specs;
  for (int i = 0; i < 60; i++) {
    const std::string key = "r" + std::to_string(i % 45);  // Repeats: stale replays.
    specs.push_back({i % 9 == 4 ? LogEntryType::kTombstone : LogEntryType::kObject,
                     TableId{1} + static_cast<TableId>(i % 4 == 3), key,
                     static_cast<Version>(100 - i)});
  }
  return specs;
}

// The replay loop each caller ran before ReplayRecords: parse, replay,
// count, until an entry does not parse.
ObjectManager::ReplayTally ReferenceReplay(ObjectManager* om, std::span<const uint8_t> bytes,
                                           const ObjectManager::ReplayFilter& accept) {
  ObjectManager::ReplayTally tally;
  size_t offset = 0;
  while (offset < bytes.size()) {
    LogEntryView entry;
    if (!ReadEntry(bytes.data() + offset, bytes.size() - offset, &entry)) {
      break;
    }
    const size_t length = entry.header.TotalLength();
    if (!accept || accept(offset, entry)) {
      om->Replay(entry, nullptr);
      tally.records++;
      tally.bytes += length;
    }
    offset += length;
  }
  return tally;
}

std::vector<std::pair<KeyHash, Version>> Contents(const ObjectManager& om) {
  std::vector<std::pair<KeyHash, Version>> contents;
  om.hash_table().ForEach([&](KeyHash hash, LogRef ref) {
    LogEntryView entry;
    EXPECT_TRUE(om.log().Read(ref, &entry));
    contents.emplace_back(hash, entry.version());
  });
  return contents;
}

TEST(ReplayRecordsTest, TalliesWhatTheReplacedLoopTallied) {
  const std::vector<uint8_t> bytes = Serialize(MixedSpecs());
  // The recovery filter's shape: a skip offset, objects and tombstones of
  // one table.
  const size_t skip_below = bytes.size() / 3;
  const ObjectManager::ReplayFilter recovery = [&](size_t offset, const LogEntryView& entry) {
    return offset >= skip_below && entry.table_id() == 1;
  };
  for (const bool filtered : {false, true}) {
    const ObjectManager::ReplayFilter accept = filtered ? recovery : nullptr;
    ObjectManager om(SmallOptions());
    ObjectManager reference(SmallOptions());
    const ObjectManager::ReplayTally tally = om.ReplayRecords(bytes, nullptr, accept);
    const ObjectManager::ReplayTally expected = ReferenceReplay(&reference, bytes, accept);
    EXPECT_EQ(tally.records, expected.records) << "filtered " << filtered;
    EXPECT_EQ(tally.bytes, expected.bytes) << "filtered " << filtered;
    EXPECT_EQ(Contents(om), Contents(reference)) << "filtered " << filtered;
    EXPECT_EQ(om.version_horizon(), reference.version_horizon());
  }
  ObjectManager om(SmallOptions());
  EXPECT_EQ(om.ReplayRecords(bytes, nullptr).records, 60u);
}

TEST(ReplayRecordsTest, HonoursTheFilterAndItsSkipOffset) {
  const std::vector<EntrySpec> specs = {{LogEntryType::kObject, 1, "a", 5},
                                        {LogEntryType::kObject, 1, "b", 5},
                                        {LogEntryType::kObject, 2, "c", 5},
                                        {LogEntryType::kTombstone, 1, "d", 5},
                                        {LogEntryType::kObject, 1, "e", 5}};
  const std::vector<uint8_t> bytes = Serialize(specs);
  const size_t second = Serialize({specs[0]}).size();
  ObjectManager om(SmallOptions());
  std::vector<size_t> offsets;
  const ObjectManager::ReplayTally tally =
      om.ReplayRecords(bytes, nullptr, [&](size_t offset, const LogEntryView& entry) {
        offsets.push_back(offset);
        return offset >= second && entry.table_id() == 1;
      });
  // Every entry is offered, at its offset; "a" is below the skip offset and
  // "c" belongs to another table.
  ASSERT_EQ(offsets.size(), 5u);
  EXPECT_EQ(offsets[0], 0u);
  EXPECT_EQ(offsets[1], second);
  EXPECT_EQ(tally.records, 3u);
  EXPECT_EQ(tally.bytes, bytes.size() - second - Serialize({specs[2]}).size());
  EXPECT_EQ(om.Read(1, "a", HashKey("a")).status(), Status::kObjectNotFound);
  EXPECT_TRUE(om.Read(1, "b", HashKey("b")).ok());
  EXPECT_FALSE(om.hash_table().Lookup(HashKey("c")).valid());
  EXPECT_TRUE(om.hash_table().Lookup(HashKey("d")).valid());  // Referenced tombstone.
  EXPECT_TRUE(om.Read(1, "e", HashKey("e")).ok());
}

TEST(ReplayRecordsTest, StopsAtATornTail) {
  const std::vector<EntrySpec> specs = {{LogEntryType::kObject, 1, "a", 5},
                                        {LogEntryType::kObject, 1, "b", 5},
                                        {LogEntryType::kObject, 1, "c", 5}};
  const std::vector<uint8_t> whole = Serialize(specs);
  const size_t two = Serialize({specs[0], specs[1]}).size();
  // Truncated inside the third entry, a zero hole in its place, and a
  // flipped byte in its value.
  std::vector<uint8_t> truncated(whole.begin(), whole.end() - 3);
  std::vector<uint8_t> hole = whole;
  std::fill(hole.begin() + static_cast<ptrdiff_t>(two), hole.end(), uint8_t{0});
  std::vector<uint8_t> corrupt = whole;
  corrupt.back() ^= 0xff;
  for (const std::vector<uint8_t>* bytes : {&truncated, &hole, &corrupt}) {
    ObjectManager om(SmallOptions());
    const ObjectManager::ReplayTally tally = om.ReplayRecords(*bytes, nullptr);
    EXPECT_EQ(tally.records, 2u);
    EXPECT_EQ(tally.bytes, two);
    EXPECT_TRUE(om.Read(1, "b", HashKey("b")).ok());
    EXPECT_FALSE(om.hash_table().Lookup(HashKey("c")).valid());
  }
  ObjectManager om(SmallOptions());
  EXPECT_EQ(om.ReplayRecords(std::span<const uint8_t>(), nullptr).records, 0u);
}

TEST(ReplayRecordsTest, AppendsToTheSideLogOrTheMainLog) {
  const std::vector<uint8_t> bytes = Serialize(MixedSpecs());
  ObjectManager side_target(SmallOptions());
  SideLog side(&side_target.log());
  const LogPosition main_head = side_target.log().HeadPosition();
  const size_t replayed = side_target.ReplayRecords(bytes, &side).records;
  EXPECT_EQ(replayed, 60u);
  // Stale repeats are dropped; the side log holds the incorporated rest and
  // the main log did not move.
  EXPECT_EQ(side.pending_entries(), side_target.object_count());
  EXPECT_TRUE(side_target.log().HeadPosition() == main_head);

  ObjectManager main_target(SmallOptions());
  const uint64_t appended_before = main_target.log().stats().appended_bytes;
  main_target.ReplayRecords(bytes, nullptr);
  EXPECT_GT(main_target.log().stats().appended_bytes, appended_before);
  EXPECT_EQ(Contents(main_target), Contents(side_target));
}

}  // namespace
}  // namespace rocksteady
