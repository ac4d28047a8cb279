// Backup replica semantics: a replica keeps the slices it is sent instead of
// copying them, and must still read back exactly what a private copy
// written the same way would hold. Each case below runs the same writes
// through a BackupService and through a private-copy reference model; the
// cluster cases check that replicas share the masters' segment buffers and
// that those bytes outlive the master's own copy (the cleaner freeing a
// segment, a crash-restart dropping the log).
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "src/cluster/backup_service.h"
#include "src/cluster/cluster.h"
#include "src/common/random.h"
#include "src/log/segment.h"

namespace rocksteady {
namespace {

constexpr ServerId kMaster = 7;
constexpr uint32_t kSegment = 3;

// What a backup that copies every write holds: the writes applied in
// arrival order, the replica grown (zero-filled) to cover each.
struct PrivateCopy {
  void Write(uint32_t offset, const ByteSlice& data) {
    if (bytes.size() < offset + data.size()) {
      bytes.resize(offset + data.size());
    }
    std::memcpy(bytes.data() + offset, data.data(), data.size());
  }
  std::vector<uint8_t> bytes;
};

// Sends the same write to the backup under test and to the model.
struct Harness {
  void Write(uint32_t offset, const ByteSlice& data, uint32_t segment = kSegment) {
    backup.Write(kMaster, segment, offset, data, /*seal=*/false);
    model[segment].Write(offset, data);
  }

  // The backup's recovery bytes for `segment` (empty if it holds none).
  ByteSlice Recovered(uint32_t segment = kSegment) const {
    for (const RecoverySegment& s : backup.GetRecoveryData(kMaster, 0)) {
      if (s.segment_id == segment) {
        return s.data;
      }
    }
    return ByteSlice();
  }

  void ExpectMatchesModel(uint32_t segment = kSegment) const {
    const ByteSlice got = Recovered(segment);
    EXPECT_EQ(std::vector<uint8_t>(got.begin(), got.end()), model.at(segment).bytes);
  }

  BackupService backup;
  std::map<uint32_t, PrivateCopy> model;
};

// A buffer of `size` patterned bytes (no zeros, so gaps are visible).
IntrusivePtr<ByteBuffer> Patterned(size_t size, uint8_t seed) {
  IntrusivePtr<ByteBuffer> buffer = ByteBuffer::Allocate(size);
  for (size_t i = 0; i < size; i++) {
    buffer->data()[i] = static_cast<uint8_t>(1 + (seed + i * 7) % 251);
  }
  return buffer;
}

// A segment holding `count` real log entries; their offsets in `offsets`.
Segment EntrySegment(size_t count, std::vector<size_t>* offsets) {
  Segment segment(kSegment, 64 * 1024);
  for (size_t i = 0; i < count; i++) {
    LogEntryHeader header;
    header.type = LogEntryType::kObject;
    header.table_id = 1;
    header.key_hash = i;
    header.version = i + 1;
    offsets->push_back(
        segment.AppendEntry(header, "key" + std::to_string(i), std::string(40, 'v')));
  }
  offsets->push_back(segment.used());
  return segment;
}

// How many whole entries parse from the start of `bytes`.
size_t ParsedEntries(const ByteSlice& bytes) {
  size_t offset = 0;
  size_t entries = 0;
  LogEntryView entry;
  while (offset < bytes.size() &&
         ReadEntry(bytes.data() + offset, bytes.size() - offset, &entry)) {
    offset += entry.header.TotalLength();
    entries++;
  }
  return entries;
}

TEST(BackupServiceTest, InOrderAppendsMatchAPrivateCopyAndShareTheSendersBuffer) {
  Harness h;
  const IntrusivePtr<ByteBuffer> segment = Patterned(1000, 1);
  for (uint32_t offset = 0; offset < 900; offset += 150) {
    h.Write(offset, ByteSlice(segment, offset, 150));
    h.ExpectMatchesModel();
  }
  // One contiguous run of one buffer: read back as that very slice.
  EXPECT_EQ(h.Recovered().data(), segment->data());
  EXPECT_EQ(h.Recovered().size(), 900u);
}

TEST(BackupServiceTest, DuplicatedWriteMatchesAPrivateCopy) {
  Harness h;
  const IntrusivePtr<ByteBuffer> segment = Patterned(1000, 2);
  h.Write(0, ByteSlice(segment, 0, 100));
  h.Write(100, ByteSlice(segment, 100, 100));
  h.Write(0, ByteSlice(segment, 0, 100));    // A retransmission.
  h.Write(50, ByteSlice(segment, 50, 100));  // A retry straddling both.
  h.Write(200, ByteSlice(segment, 200, 100));
  h.ExpectMatchesModel();
  EXPECT_EQ(h.Recovered().data(), segment->data());
  EXPECT_EQ(h.backup.bytes_stored(), 500u);  // Every write counts, as before.
}

TEST(BackupServiceTest, OutOfOrderWriteLeavesAZeroGapUntilTheMissingWriteArrives) {
  std::vector<size_t> at;
  const Segment segment = EntrySegment(3, &at);
  auto entry = [&](size_t i) { return segment.Slice(at[i], at[i + 1] - at[i]); };
  Harness h;
  h.Write(static_cast<uint32_t>(at[0]), entry(0));
  h.Write(static_cast<uint32_t>(at[2]), entry(2));  // Entry 1 not yet arrived.
  h.ExpectMatchesModel();
  const ByteSlice gapped = h.Recovered();
  ASSERT_EQ(gapped.size(), segment.used());
  for (size_t i = at[1]; i < at[2]; i++) {
    ASSERT_EQ(gapped.data()[i], 0) << "byte " << i << " of the gap exposes unsent bytes";
  }
  EXPECT_EQ(ParsedEntries(gapped), 1u);  // Replay stops at the gap.

  h.Write(static_cast<uint32_t>(at[1]), entry(1));  // The late write fills it.
  h.ExpectMatchesModel();
  EXPECT_EQ(ParsedEntries(h.Recovered()), 3u);
}

TEST(BackupServiceTest, OffsetZeroRewritesOfAPseudoStreamMatchAPrivateCopy) {
  // A stream that rewrites offset 0 with each new batch, each from its own
  // buffer: a shorter batch leaves the tail of a longer one. Twenty batches
  // also push past the extent cap.
  Harness h;
  const size_t lengths[] = {300, 100, 200, 50, 400, 10, 390, 20, 30, 40,
                            50,  60,  70,  80, 90,  99, 398, 5,  1,  250};
  uint8_t seed = 10;
  for (const size_t length : lengths) {
    const IntrusivePtr<ByteBuffer> batch = Patterned(length, seed++);
    h.Write(0, ByteSlice(batch, 0, length));
    h.ExpectMatchesModel();
  }
}

TEST(BackupServiceTest, RandomWriteMixMatchesAPrivateCopy) {
  // Property check: identity-mapped writes of two segment buffers (a master
  // rewriting a segment id after a restart), writes of those buffers at a
  // shifted position, fresh-buffer rewrites and empty writes, in random
  // order, over four segments.
  Random rng(12345);
  Harness h;
  const IntrusivePtr<ByteBuffer> generations[] = {Patterned(4096, 1), Patterned(4096, 2)};
  for (int step = 0; step < 4000; step++) {
    const uint32_t segment = static_cast<uint32_t>(rng.Uniform(4));
    const uint32_t offset = static_cast<uint32_t>(rng.Uniform(3000));
    const size_t length = rng.Uniform(5) == 0 ? 0 : rng.UniformRange(1, 1000);
    const IntrusivePtr<ByteBuffer>& generation = generations[rng.Uniform(2)];
    switch (rng.Uniform(4)) {
      case 0:
        h.Write(offset, ByteSlice(Patterned(length, static_cast<uint8_t>(step)), 0, length),
                segment);
        break;
      case 1:
        h.Write(offset, ByteSlice(generation, rng.Uniform(3000), length), segment);
        break;
      default:
        h.Write(offset, ByteSlice(generation, offset, length), segment);
    }
    h.ExpectMatchesModel(segment);
  }
  for (uint32_t segment = 0; segment < 4; segment++) {
    h.ExpectMatchesModel(segment);
  }
}

TEST(BackupServiceTest, RecoveryDataHonoursTheMinimumSegmentAndFreeDropsOneMaster) {
  BackupService backup;
  const IntrusivePtr<ByteBuffer> bytes = Patterned(64, 3);
  for (const ServerId master : {ServerId{6}, kMaster, ServerId{8}}) {
    for (uint32_t segment = 1; segment <= 4; segment++) {
      backup.Write(master, segment, 0, ByteSlice(bytes, 0, 64), /*seal=*/true);
    }
  }
  std::vector<uint32_t> ids;
  for (const RecoverySegment& s : backup.GetRecoveryData(kMaster, 3)) {
    ids.push_back(s.segment_id);
  }
  EXPECT_EQ(ids, (std::vector<uint32_t>{3, 4}));
  backup.FreeReplicas(kMaster);
  EXPECT_TRUE(backup.GetRecoveryData(kMaster, 0).empty());
  EXPECT_EQ(backup.GetRecoveryData(6, 0).size(), 4u);
  EXPECT_EQ(backup.GetRecoveryData(8, 0).size(), 4u);
  EXPECT_EQ(backup.segment_count(), 8u);
}

// --- Cluster: replicas share the masters' segment buffers. ---

ClusterConfig SmallCluster() {
  ClusterConfig config;
  config.num_masters = 4;
  config.num_clients = 1;
  config.master.hash_table_log2_buckets = 12;
  config.master.segment_size = 16 * 1024;
  return config;
}

// (segment id -> private copy of its used bytes) for master `index`.
std::map<uint32_t, std::vector<uint8_t>> CopySegments(Cluster& cluster, size_t index) {
  std::map<uint32_t, std::vector<uint8_t>> copies;
  for (const auto& segment : cluster.master(index).objects().log().segments()) {
    copies[segment->id()].assign(segment->data(), segment->data() + segment->used());
  }
  return copies;
}

// Every backup of master `index` reads back exactly `expected`.
void ExpectBackupsHold(Cluster& cluster, size_t index,
                       const std::map<uint32_t, std::vector<uint8_t>>& expected) {
  MasterServer& owner = cluster.master(index);
  ASSERT_FALSE(owner.replicas().backups().empty());
  for (size_t b = 0; b < cluster.num_masters(); b++) {
    if (b == index) {
      continue;
    }
    std::map<uint32_t, std::vector<uint8_t>> held;
    for (const RecoverySegment& s : cluster.master(b).backup().GetRecoveryData(owner.id(), 0)) {
      held[s.segment_id].assign(s.data.begin(), s.data.end());
    }
    EXPECT_EQ(held, expected) << "backup on master " << b;
  }
}

void Overwrite(Cluster& cluster, uint64_t records, const std::string& value) {
  int acked = 0;
  for (uint64_t i = 0; i < records; i++) {
    cluster.client(0).Write(1, Cluster::MakeKey(i, 20), value, [&](Status s) {
      EXPECT_EQ(s, Status::kOk);
      acked++;
    });
  }
  cluster.Run();
  ASSERT_EQ(acked, static_cast<int>(records));
}

TEST(BackupServiceClusterTest, LoadedAndWrittenReplicasPointIntoTheMastersSegments) {
  Cluster cluster(SmallCluster());
  cluster.CreateTable(1, 0);
  cluster.LoadTable(1, 400, 20, 100);
  Overwrite(cluster, 40, "durable");  // Appends replicated entry by entry.
  MasterServer& owner = cluster.master(0);
  const auto& segments = owner.objects().log().segments();
  ASSERT_GT(segments.size(), 2u);
  size_t shared = 0;
  for (size_t b = 1; b < cluster.num_masters(); b++) {
    const std::vector<RecoverySegment> held =
        cluster.master(b).backup().GetRecoveryData(owner.id(), 0);
    ASSERT_EQ(held.size(), segments.size());
    for (size_t i = 0; i < held.size(); i++) {
      ASSERT_EQ(held[i].segment_id, segments[i]->id());
      // Pointer identity: the replica is the master's bytes, not a copy.
      EXPECT_EQ(held[i].data.data(), segments[i]->data());
      EXPECT_EQ(held[i].data.size(), segments[i]->used());
      shared++;
    }
  }
  EXPECT_EQ(shared, 3 * segments.size());
}

TEST(BackupServiceClusterTest, SegmentFreedByTheCleanerStaysRecoverable) {
  Cluster cluster(SmallCluster());
  cluster.CreateTable(1, 0);
  cluster.LoadTable(1, 400, 20, 100);
  Overwrite(cluster, 400, "second");  // Every loaded entry is now dead.
  auto expected = CopySegments(cluster, 0);
  Log& log = cluster.master(0).objects().log();
  const uint32_t first = log.segments().front()->id();
  for (int i = 0; i < 10; i++) {
    cluster.master(0).objects().RunCleaner(4);
  }
  ASSERT_EQ(log.FindSegment(first), nullptr) << "the cleaner freed nothing";
  // The freed segments' replicas still read back their bytes; the live
  // segments (and survivors the cleaner wrote) are not compared here.
  std::map<uint32_t, std::vector<uint8_t>> freed;
  for (auto& [id, bytes] : expected) {
    if (log.FindSegment(id) == nullptr) {
      freed[id] = std::move(bytes);
    }
  }
  for (size_t b = 1; b < cluster.num_masters(); b++) {
    for (const RecoverySegment& s :
         cluster.master(b).backup().GetRecoveryData(cluster.master(0).id(), 0)) {
      if (auto it = freed.find(s.segment_id); it != freed.end()) {
        EXPECT_EQ(std::vector<uint8_t>(s.data.begin(), s.data.end()), it->second)
            << "segment " << s.segment_id << " on backup " << b;
      }
    }
  }
}

TEST(BackupServiceClusterTest, CrashedThenRestartedMastersSegmentsStayRecoverable) {
  Cluster cluster(SmallCluster());
  cluster.CreateTable(1, 0);
  cluster.LoadTable(1, 400, 20, 100);
  Overwrite(cluster, 40, "durable");
  const auto expected = CopySegments(cluster, 0);
  cluster.master(0).Crash();
  cluster.master(0).Restart();  // Comes back empty: its entries are dead.
  for (int i = 0; i < 10; i++) {
    cluster.master(0).objects().RunCleaner(4);
  }
  const Log& log = cluster.master(0).objects().log();
  ASSERT_EQ(log.FindSegment(expected.begin()->first), nullptr) << "the cleaner freed nothing";
  ExpectBackupsHold(cluster, 0, expected);
}

}  // namespace
}  // namespace rocksteady
