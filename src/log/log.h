// The master's in-memory segmented log.
//
// §2.3: "During normal operation each server stores all records in an
// in-memory log. The log is incrementally cleaned; it is never checkpointed,
// and a full copy of it always remains in memory." The hash table stores
// LogRef values (segment id + offset) into this log. Side logs (§3.1.3)
// allocate segments from the same id space so their references stay valid
// when committed.
#ifndef ROCKSTEADY_SRC_LOG_LOG_H_
#define ROCKSTEADY_SRC_LOG_LOG_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/audit.h"
#include "src/common/prefetch.h"
#include "src/common/status.h"
#include "src/log/segment.h"

namespace rocksteady {

// A compact reference to an entry: segment id + byte offset.
struct LogRef {
  uint64_t raw = 0;

  LogRef() = default;
  LogRef(uint32_t segment_id, uint32_t offset)
      : raw((static_cast<uint64_t>(segment_id) << 32) | offset | kValidBit) {}

  bool valid() const { return (raw & kValidBit) != 0; }
  uint32_t segment_id() const { return static_cast<uint32_t>(raw >> 32); }
  uint32_t offset() const { return static_cast<uint32_t>(raw) & ~kValidBitLow; }

  friend bool operator==(LogRef a, LogRef b) { return a.raw == b.raw; }

 private:
  // Offsets are segment-bounded (< 2^31), so the low bit 31 marks validity.
  static constexpr uint64_t kValidBit = 1ull << 31;
  static constexpr uint32_t kValidBitLow = 1u << 31;
};

// A position in a log, as (segment id, byte offset): the bytes a replay
// appended are those between the positions before and after it.
using LogPosition = std::pair<uint32_t, uint32_t>;

struct LogStats {
  uint64_t appended_bytes = 0;
  uint64_t appended_entries = 0;
  uint64_t dead_bytes = 0;
  uint64_t cleaned_segments = 0;
  uint64_t relocated_entries = 0;
  uint64_t relocated_bytes = 0;
};

class Log {
 public:
  explicit Log(size_t segment_size = kDefaultSegmentSize) : segment_size_(segment_size) {}

  Log(const Log&) = delete;
  Log& operator=(const Log&) = delete;

  // Appends an object entry; rolls to a new head segment when full.
  Result<LogRef> AppendObject(TableId table, KeyHash hash, std::string_view key,
                              std::string_view value, Version version);
  Result<LogRef> AppendTombstone(TableId table, KeyHash hash, std::string_view key,
                                 Version version);

  // Appends an entry another log wrote (replayed migration or recovery
  // data, or a live entry the cleaner relocates) byte for byte: its
  // header, key, value, version and checksum are kept, so nothing is
  // re-serialized or re-checksummed. `entry` must come from ReadEntry.
  Result<LogRef> AppendSerialized(const LogEntryView& entry);

  // Reads the (validated) entry at `ref`; false if the reference is stale
  // (segment freed) or the entry fails its checksum.
  bool Read(LogRef ref, LogEntryView* out) const;

  // Hints that the entry at `ref` is about to be read: prefetches the first
  // kPrefetchEntryLines cache lines at its offset. A stale ref (segment
  // freed), an unknown segment id, an offset past the segment or an
  // invalid ref is a no-op: a missing segment is never dereferenced.
  void PrefetchEntry(LogRef ref) const {
    if (!ref.valid()) {
      return;
    }
    const Segment* segment = FindSegment(ref.segment_id());
    if (segment == nullptr || ref.offset() >= segment->capacity()) {
      return;
    }
    PrefetchLines(segment->data() + ref.offset(), kPrefetchEntryLines);
  }

  // The same bytes as a slice sharing the segment's buffer: what
  // replication sends, so backups hold them without a copy.
  bool EntrySlice(LogRef ref, ByteSlice* out) const;

  // Marks the entry at `ref` dead (overwritten or deleted); updates segment
  // live-byte accounting for the cleaner.
  void MarkDead(LogRef ref);
  // The same, for an entry the caller already read at `ref`: no re-parse.
  void MarkDead(LogRef ref, const LogEntryView& entry);

  // Allocates a segment in this log's id space without appending it to the
  // main list; used by SideLog. The segment is registered for Read() lookups
  // immediately (migrated records must be readable before commit).
  std::unique_ptr<Segment> AllocateSideSegment();

  // Adopts side-log segments into the main log and appends a commit record
  // naming them (§3.1.3 / §3.4: the sidelog commit makes the records part of
  // the master's durable state).
  void AdoptSideSegments(std::vector<std::unique_ptr<Segment>> segments);

  // Drops an allocated-but-uncommitted side segment (aborted migration).
  void DropSideSegment(std::unique_ptr<Segment> segment);

  // Iterates every entry of every owned segment in id order. Side-log
  // segments not yet committed are not included (they are not part of the
  // log's durable state).
  void ForEachEntry(const std::function<void(LogRef, const LogEntryView&)>& fn) const;

  // Segments owned by the main log (sealed and head), oldest first.
  const std::vector<std::unique_ptr<Segment>>& segments() const { return segments_; }

  // Removes a (cleaned) segment entirely. The caller must have relocated all
  // live entries first.
  void FreeSegment(uint32_t segment_id);

  Segment* FindSegment(uint32_t segment_id) const {
    return segment_id < registry_.size() ? registry_[segment_id] : nullptr;
  }

  // Head position, as (segment id, offset): everything appended later than
  // this is "the log tail" — what a lineage dependency covers (§3.4).
  LogPosition HeadPosition() const;

  const LogStats& stats() const { return stats_; }
  size_t segment_size() const { return segment_size_; }
  uint64_t live_bytes() const;
  uint64_t total_bytes() const;
  // Memory actually held: full segment capacity of every live segment,
  // *including* uncommitted side-log segments (unlike live/total_bytes,
  // which cover only the main log). This is what a memory budget is charged
  // against — a migration target's side logs occupy DRAM before commit.
  uint64_t allocated_bytes() const;

  // Invariants: segment ids strictly increasing and below the allocation
  // cursor, committed (non-head) segments sealed, every owned segment
  // registered, registry covers at least the owned segments (the surplus is
  // uncommitted side segments), per-segment entry checksums, and live-byte
  // accounting bounded by used bytes.
  void AuditInvariants(AuditReport* report) const;

 private:
  // A YCSB record (40 B header + 30 B key + 100 B value) spans three cache
  // lines; a reader's first touch is the header, then the checksum walks
  // the rest.
  static constexpr size_t kPrefetchEntryLines = 3;

  Result<LogRef> Append(LogEntryType type, TableId table, KeyHash hash, std::string_view key,
                        std::string_view value, Version version);
  // Appends a `needed`-byte entry with `append_to(segment)` (which returns
  // the offset, or SIZE_MAX when the segment is full) at the head, rolling
  // to a new head segment once.
  template <typename AppendTo>
  Result<LogRef> AppendAtHead(size_t needed, const AppendTo& append_to);
  Segment* Head();
  // Records `segment` in registry_ under its id.
  void Register(Segment* segment);

  size_t segment_size_;
  uint32_t next_segment_id_ = 1;
  std::vector<std::unique_ptr<Segment>> segments_;
  // Every live segment (main + uncommitted side), indexed by id, for
  // Read(): ids are dense (next_segment_id_++), a freed id holds null.
  // Grows by one pointer per segment ever allocated (8 bytes per
  // segment_size_ bytes of log written).
  std::vector<Segment*> registry_;
  LogStats stats_;
};

}  // namespace rocksteady

#endif  // ROCKSTEADY_SRC_LOG_LOG_H_
