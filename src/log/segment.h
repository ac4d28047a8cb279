// A fixed-size append-only chunk of log memory.
//
// RAMCloud segments are 8 MB; the simulated cluster defaults to smaller
// segments (configurable) so scaled-down experiments still produce many
// segments for the cleaner and for recovery to chew on. Segment ids are
// unique within one Log, including side-log segments (§3.1.3), so log
// references stay valid when a side log commits into the main log.
#ifndef ROCKSTEADY_SRC_LOG_SEGMENT_H_
#define ROCKSTEADY_SRC_LOG_SEGMENT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>

#include "src/common/audit.h"
#include "src/common/byte_slice.h"
#include "src/log/log_entry.h"

namespace rocksteady {

inline constexpr size_t kDefaultSegmentSize = 256 * 1024;

class Segment {
 public:
  // The buffer is not zero-filled: only the appended prefix is ever read.
  Segment(uint32_t id, size_t capacity) : id_(id), buffer_(ByteBuffer::Allocate(capacity)) {}

  uint32_t id() const { return id_; }
  size_t capacity() const { return buffer_->capacity(); }
  size_t used() const { return used_; }
  size_t Free() const { return capacity() - used_; }
  bool sealed() const { return sealed_; }
  void Seal() { sealed_ = true; }

  // Bytes of entries still referenced by a hash table; maintained by the Log
  // via MarkDead. Drives the cleaner's cost-benefit policy.
  size_t live_bytes() const { return live_bytes_; }
  void SubLive(size_t bytes) { live_bytes_ -= bytes; }

  // Appends a serialized entry; returns its offset, or SIZE_MAX if full.
  size_t AppendEntry(const LogEntryHeader& header, std::string_view key, std::string_view value);

  // Appends an entry that is already serialized (a LogEntryView's `raw`
  // bytes, `length` = its TotalLength()) verbatim; returns its offset, or
  // SIZE_MAX if full.
  size_t AppendSerialized(const uint8_t* entry, size_t length);

  // Parses the entry at `offset`. Returns false on bad offset or checksum.
  bool EntryAt(size_t offset, LogEntryView* out) const;

  // Iterates entries in append order; stops early if `fn` returns false.
  // Returns false if a corrupt entry was encountered.
  bool ForEach(const std::function<bool(size_t offset, const LogEntryView&)>& fn) const;

  const uint8_t* data() const { return buffer_->data(); }

  // Appended bytes [offset, offset + length), shared rather than copied:
  // replicas and replication requests hold them. Appended bytes are never
  // rewritten, and the slice keeps them alive after the segment is freed.
  ByteSlice Slice(size_t offset, size_t length) const {
    ROCKSTEADY_DCHECK_LE(offset + length, used_);
    return ByteSlice(buffer_, offset, length);
  }

  // Invariants: used/live accounting within bounds, and the used region is
  // exactly tiled by entries whose checksums validate.
  void AuditInvariants(AuditReport* report) const;

 private:
  uint32_t id_;
  size_t used_ = 0;
  size_t live_bytes_ = 0;
  bool sealed_ = false;
  IntrusivePtr<ByteBuffer> buffer_;
};

}  // namespace rocksteady

#endif  // ROCKSTEADY_SRC_LOG_SEGMENT_H_
