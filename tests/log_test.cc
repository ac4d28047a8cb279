// Unit tests for log entries, segments, the log, side logs, and the cleaner.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/common/hash.h"
#include "src/log/log.h"
#include "src/log/log_cleaner.h"
#include "src/log/log_entry.h"
#include "src/log/segment.h"
#include "src/log/side_log.h"

namespace rocksteady {
namespace {

LogEntryHeader ObjectHeader(TableId table, KeyHash hash, Version version) {
  LogEntryHeader header;
  header.type = LogEntryType::kObject;
  header.table_id = table;
  header.key_hash = hash;
  header.version = version;
  return header;
}

// Side logs hold replayed entries: serializes an object the way its source
// log did, then appends those bytes.
Result<LogRef> AppendObject(SideLog* side, TableId table, KeyHash hash, std::string_view key,
                            std::string_view value, Version version) {
  std::vector<uint8_t> bytes(sizeof(LogEntryHeader) + key.size() + value.size());
  WriteEntry(bytes.data(), ObjectHeader(table, hash, version), key, value);
  LogEntryView entry;
  if (!ReadEntry(bytes.data(), bytes.size(), &entry)) {
    return Status::kCorruptData;
  }
  return side->AppendSerialized(entry);
}

// -------------------------------------------------------------- LogEntry.

TEST(LogEntryTest, RoundTrip) {
  std::vector<uint8_t> buffer(256);
  WriteEntry(buffer.data(), ObjectHeader(7, 0x1234, 42), "key1", "value-bytes");
  LogEntryView view;
  ASSERT_TRUE(ReadEntry(buffer.data(), buffer.size(), &view));
  EXPECT_EQ(view.type(), LogEntryType::kObject);
  EXPECT_EQ(view.table_id(), 7u);
  EXPECT_EQ(view.key_hash(), 0x1234u);
  EXPECT_EQ(view.version(), 42u);
  EXPECT_EQ(view.key, "key1");
  EXPECT_EQ(view.value, "value-bytes");
}

TEST(LogEntryTest, ChecksumDetectsCorruption) {
  std::vector<uint8_t> buffer(256);
  WriteEntry(buffer.data(), ObjectHeader(1, 2, 3), "k", "v");
  buffer[sizeof(LogEntryHeader)] ^= 0xFF;  // Flip a key byte.
  LogEntryView view;
  EXPECT_FALSE(ReadEntry(buffer.data(), buffer.size(), &view));
}

TEST(LogEntryTest, TruncatedBufferRejected) {
  std::vector<uint8_t> buffer(256);
  WriteEntry(buffer.data(), ObjectHeader(1, 2, 3), "key", "a longer value here");
  LogEntryView view;
  EXPECT_FALSE(ReadEntry(buffer.data(), sizeof(LogEntryHeader) + 2, &view));
  EXPECT_FALSE(ReadEntry(buffer.data(), 10, &view));
}

TEST(LogEntryTest, EmptyKeyAndValue) {
  std::vector<uint8_t> buffer(64);
  WriteEntry(buffer.data(), ObjectHeader(1, 2, 3), "", "");
  LogEntryView view;
  ASSERT_TRUE(ReadEntry(buffer.data(), buffer.size(), &view));
  EXPECT_TRUE(view.key.empty());
  EXPECT_TRUE(view.value.empty());
}

// --------------------------------------------------------------- Segment.

TEST(SegmentTest, AppendUntilFull) {
  Segment segment(1, 1024);
  int appended = 0;
  while (segment.AppendEntry(ObjectHeader(1, appended, 1), "key", "0123456789") != SIZE_MAX) {
    appended++;
  }
  EXPECT_GT(appended, 0);
  // Each entry is 40 + 3 + 10 = 53 bytes; 1024 / 53 = 19.
  EXPECT_EQ(appended, 19);
  EXPECT_LE(segment.used(), segment.capacity());
}

TEST(SegmentTest, ForEachVisitsInOrder) {
  Segment segment(1, 4096);
  for (int i = 0; i < 10; i++) {
    segment.AppendEntry(ObjectHeader(1, i, 1), "k" + std::to_string(i), "v");
  }
  std::vector<KeyHash> seen;
  EXPECT_TRUE(segment.ForEach([&](size_t, const LogEntryView& view) {
    seen.push_back(view.key_hash());
    return true;
  }));
  ASSERT_EQ(seen.size(), 10u);
  for (int i = 0; i < 10; i++) {
    EXPECT_EQ(seen[i], static_cast<KeyHash>(i));
  }
}

TEST(SegmentTest, LiveByteAccounting) {
  Segment segment(1, 4096);
  segment.AppendEntry(ObjectHeader(1, 1, 1), "key", "0123456789");
  EXPECT_EQ(segment.live_bytes(), segment.used());
  segment.SubLive(53);
  EXPECT_EQ(segment.live_bytes(), segment.used() - 53);
}

// ------------------------------------------------------------------- Log.

TEST(LogTest, AppendAndRead) {
  Log log;
  auto ref = log.AppendObject(1, HashKey("a"), "a", "value-a", 1);
  ASSERT_TRUE(ref.ok());
  LogEntryView view;
  ASSERT_TRUE(log.Read(*ref, &view));
  EXPECT_EQ(view.key, "a");
  EXPECT_EQ(view.value, "value-a");
}

TEST(LogTest, RollsToNewSegments) {
  Log log(1024);
  std::vector<LogRef> refs;
  for (int i = 0; i < 100; i++) {
    auto ref = log.AppendObject(1, i, "key" + std::to_string(i), std::string(50, 'x'), 1);
    ASSERT_TRUE(ref.ok());
    refs.push_back(*ref);
  }
  EXPECT_GT(log.segments().size(), 5u);
  // Every reference still readable after rolling.
  for (int i = 0; i < 100; i++) {
    LogEntryView view;
    ASSERT_TRUE(log.Read(refs[i], &view));
    EXPECT_EQ(view.key_hash(), static_cast<KeyHash>(i));
  }
}

TEST(LogTest, OversizeEntryRejected) {
  Log log(256);
  auto ref = log.AppendObject(1, 1, "k", std::string(1000, 'x'), 1);
  EXPECT_FALSE(ref.ok());
  EXPECT_EQ(ref.status(), Status::kNoSpace);
}

TEST(LogTest, InvalidRefReadFails) {
  Log log;
  LogEntryView view;
  EXPECT_FALSE(log.Read(LogRef(), &view));
  EXPECT_FALSE(log.Read(LogRef(999, 0), &view));
}

TEST(LogTest, MarkDeadUpdatesAccounting) {
  Log log;
  auto ref = log.AppendObject(1, 1, "key", "value", 1);
  const uint64_t live_before = log.live_bytes();
  log.MarkDead(*ref);
  EXPECT_LT(log.live_bytes(), live_before);
  EXPECT_GT(log.stats().dead_bytes, 0u);
}

TEST(LogTest, ForEachEntrySeesEverything) {
  Log log(512);
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(log.AppendObject(1, i, "k" + std::to_string(i), "v", 1).ok());
  }
  std::set<KeyHash> seen;
  log.ForEachEntry([&](LogRef, const LogEntryView& view) {
    if (view.type() == LogEntryType::kObject) {
      seen.insert(view.key_hash());
    }
  });
  EXPECT_EQ(seen.size(), 50u);
}

TEST(LogTest, HeadPositionAdvances) {
  Log log;
  const auto before = log.HeadPosition();
  log.AppendObject(1, 1, "k", "v", 1);
  const auto after = log.HeadPosition();
  EXPECT_TRUE(after.first > before.first || after.second > before.second);
}

TEST(LogTest, PrefetchEntryIgnoresStaleAndInvalidRefs) {
  Log log(1024);
  std::vector<LogRef> refs;
  for (int i = 0; i < 40; i++) {
    auto ref = log.AppendObject(1, i, "key" + std::to_string(i), std::string(50, 'x'), 1);
    ASSERT_TRUE(ref.ok());
    refs.push_back(*ref);
  }
  const uint32_t freed = refs.front().segment_id();
  log.FreeSegment(freed);
  ASSERT_EQ(log.FindSegment(freed), nullptr);
  // A live ref, a ref into the freed segment, an id past the registry, an
  // offset past the segment's capacity and an invalid ref: each is a hint
  // or a no-op, never a dereference of the missing segment.
  log.PrefetchEntry(refs.back());
  log.PrefetchEntry(refs.front());
  log.PrefetchEntry(LogRef(999, 0));
  log.PrefetchEntry(LogRef(refs.back().segment_id(), 1u << 30));
  log.PrefetchEntry(LogRef());
  // Prefetching changed nothing a reader sees.
  LogEntryView view;
  EXPECT_FALSE(log.Read(refs.front(), &view));
  ASSERT_TRUE(log.Read(refs.back(), &view));
  EXPECT_EQ(view.key, "key39");
}

TEST(LogTest, AppendSerializedCopiesTheEntryByteForByte) {
  Log source(1024);
  Log copy(1024);
  std::vector<LogRef> copied;
  for (int i = 0; i < 30; i++) {  // Enough to roll the copy's head segment.
    auto ref = i % 3 == 0 ? source.AppendTombstone(1, i, "key" + std::to_string(i), 5)
                          : source.AppendObject(1, i, "key" + std::to_string(i),
                                                std::string(50, 'x'), 5);
    ASSERT_TRUE(ref.ok());
    LogEntryView entry;
    ASSERT_TRUE(source.Read(*ref, &entry));
    auto appended = copy.AppendSerialized(entry);
    ASSERT_TRUE(appended.ok());
    LogEntryView back;
    ASSERT_TRUE(copy.Read(*appended, &back));  // Still passes its checksum.
    ASSERT_EQ(back.header.TotalLength(), entry.header.TotalLength());
    EXPECT_EQ(std::memcmp(back.raw, entry.raw, entry.header.TotalLength()), 0);
    copied.push_back(*appended);
  }
  EXPECT_GT(copy.segments().size(), 1u);
  EXPECT_EQ(copy.stats().appended_entries, source.stats().appended_entries);
  EXPECT_EQ(copy.stats().appended_bytes, source.stats().appended_bytes);
  EXPECT_EQ(copy.live_bytes(), source.live_bytes());
}

// --------------------------------------------------------------- SideLog.

TEST(SideLogTest, EntriesReadableBeforeCommit) {
  Log log;
  SideLog side(&log);
  auto ref = AppendObject(&side, 1, 42, "k", "migrated-value", 7);
  ASSERT_TRUE(ref.ok());
  // Rocksteady serves reads of migrated records before sidelog commit.
  LogEntryView view;
  ASSERT_TRUE(log.Read(*ref, &view));
  EXPECT_EQ(view.value, "migrated-value");
}

TEST(SideLogTest, CommitAdoptsSegments) {
  Log log(1024);
  SideLog side(&log);
  std::vector<LogRef> refs;
  for (int i = 0; i < 60; i++) {
    auto ref = AppendObject(&side, 1, i, "key" + std::to_string(i), std::string(40, 'm'), 1);
    ASSERT_TRUE(ref.ok());
    refs.push_back(*ref);
  }
  const size_t main_segments_before = log.segments().size();
  side.Commit();
  EXPECT_GT(log.segments().size(), main_segments_before);
  EXPECT_EQ(side.pending_entries(), 0u);
  // References remain valid across commit (ids are stable).
  for (const auto& ref : refs) {
    LogEntryView view;
    EXPECT_TRUE(log.Read(ref, &view));
  }
  // The main log carries a commit record naming the side segments.
  bool found_commit = false;
  log.ForEachEntry([&](LogRef, const LogEntryView& view) {
    if (view.type() == LogEntryType::kSideLogCommit) {
      found_commit = true;
    }
  });
  EXPECT_TRUE(found_commit);
}

TEST(SideLogTest, AbortInvalidatesRefs) {
  Log log;
  SideLog side(&log);
  auto ref = AppendObject(&side, 1, 1, "k", "v", 1);
  ASSERT_TRUE(ref.ok());
  side.Abort();
  LogEntryView view;
  EXPECT_FALSE(log.Read(*ref, &view));
}

TEST(SideLogTest, CommittedEntriesVisibleToIteration) {
  Log log;
  SideLog side(&log);
  AppendObject(&side, 5, 99, "key", "val", 3);
  side.Commit();
  bool seen = false;
  log.ForEachEntry([&](LogRef, const LogEntryView& view) {
    if (view.type() == LogEntryType::kObject && view.key_hash() == 99) {
      seen = true;
    }
  });
  EXPECT_TRUE(seen);
}

TEST(SideLogTest, MultipleSideLogsShareIdSpace) {
  // Per-core side logs must never produce colliding segment ids.
  Log log(1024);
  SideLog a(&log);
  SideLog b(&log);
  std::set<uint32_t> ids;
  for (int i = 0; i < 30; i++) {
    auto ra = AppendObject(&a, 1, i, "ka" + std::to_string(i), std::string(60, 'a'), 1);
    auto rb = AppendObject(&b, 1, 1000 + i, "kb" + std::to_string(i), std::string(60, 'b'), 1);
    ids.insert(ra->segment_id());
    ids.insert(rb->segment_id());
  }
  a.Commit();
  b.Commit();
  std::set<uint32_t> main_ids;
  for (const auto& segment : log.segments()) {
    EXPECT_TRUE(main_ids.insert(segment->id()).second) << "duplicate segment id";
  }
}

// ------------------------------------------------------------ LogCleaner.

TEST(LogCleanerTest, CleansDeadSegments) {
  Log log(1024);
  std::map<KeyHash, LogRef> live;
  // Write 100 objects, then overwrite all of them (first copies all dead).
  for (int round = 0; round < 2; round++) {
    for (int i = 0; i < 100; i++) {
      if (auto it = live.find(i); it != live.end()) {
        log.MarkDead(it->second);
      }
      auto ref = log.AppendObject(1, i, "key" + std::to_string(i), std::string(30, 'x'),
                                  static_cast<Version>(round + 1));
      live[i] = *ref;
    }
  }
  LogCleaner cleaner(&log, [&](LogRef old_ref, const LogEntryView& entry) {
    auto it = live.find(entry.key_hash());
    if (it == live.end() || !(it->second == old_ref)) {
      return false;
    }
    auto moved =
        log.AppendObject(entry.table_id(), entry.key_hash(), entry.key, entry.value,
                         entry.version());
    it->second = *moved;
    return true;
  });
  const size_t segments_before = log.segments().size();
  const uint64_t total_before = log.total_bytes();
  size_t cleaned = 0;
  for (int i = 0; i < 20; i++) {
    cleaned += cleaner.CleanOnce();
  }
  EXPECT_GT(cleaned, 0u);
  EXPECT_LT(log.segments().size(), segments_before + 20);
  EXPECT_LT(log.total_bytes(), total_before);
  // Every live object still readable at its (possibly relocated) ref.
  for (const auto& [hash, ref] : live) {
    LogEntryView view;
    ASSERT_TRUE(log.Read(ref, &view)) << "lost object " << hash;
    EXPECT_EQ(view.version(), 2u);
  }
}

TEST(LogCleanerTest, SelectsEmptiestSegment) {
  Log log(1024);
  // Segment A: all dead. Segment B: all live.
  std::vector<LogRef> dead_refs;
  for (int i = 0; i < 15; i++) {
    auto ref = log.AppendObject(1, i, "key" + std::to_string(i), std::string(20, 'a'), 1);
    dead_refs.push_back(*ref);
  }
  for (auto ref : dead_refs) {
    log.MarkDead(ref);
  }
  for (int i = 100; i < 115; i++) {
    log.AppendObject(1, i, "key" + std::to_string(i), std::string(20, 'b'), 1);
  }
  LogCleaner cleaner(&log, [](LogRef, const LogEntryView&) { return false; });
  const auto victim = cleaner.SelectVictim();
  ASSERT_TRUE(victim.has_value());
  const Segment* segment = log.FindSegment(*victim);
  ASSERT_NE(segment, nullptr);
  EXPECT_EQ(segment->live_bytes(), 0u);
}

TEST(LogCleanerTest, NeverSelectsHead) {
  Log log(1 << 20);  // Everything fits in the (unsealed) head.
  log.AppendObject(1, 1, "k", "v", 1);
  LogCleaner cleaner(&log, [](LogRef, const LogEntryView&) { return false; });
  EXPECT_FALSE(cleaner.SelectVictim().has_value());
}

}  // namespace
}  // namespace rocksteady
