// Log entry format.
//
// RAMCloud keeps every record in an append-only segmented log, in memory and
// (replicated) on backups; the in-memory hash table holds references into the
// log. Entries are self-describing and self-checksummed so that migration
// replay and crash recovery can validate them before incorporation.
#ifndef ROCKSTEADY_SRC_LOG_LOG_ENTRY_H_
#define ROCKSTEADY_SRC_LOG_LOG_ENTRY_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>

#include "src/common/types.h"

namespace rocksteady {

enum class LogEntryType : uint8_t {
  kInvalid = 0,
  // A live object: header + key bytes + value bytes.
  kObject = 1,
  // A deletion marker: header only (key carried for recovery filtering).
  kTombstone = 2,
  // Marks the head of a segment; carries the owning log's id.
  kSegmentHeader = 3,
  // Appended to the main log when a side log commits; names the side log's
  // segments so recovery knows they belong to the main log (§3.1.3).
  kSideLogCommit = 4,
};

// Fixed-size prefix of every entry. Stored unaligned in segment memory; read
// and written with memcpy.
struct LogEntryHeader {
  LogEntryType type = LogEntryType::kInvalid;
  uint8_t reserved = 0;
  uint16_t key_length = 0;
  uint32_t value_length = 0;
  TableId table_id = 0;
  KeyHash key_hash = 0;
  Version version = 0;
  // CRC32C over the header (with this field zeroed), key, and value.
  uint32_t checksum = 0;

  uint32_t TotalLength() const {
    return static_cast<uint32_t>(sizeof(LogEntryHeader)) + key_length + value_length;
  }
};
static_assert(sizeof(LogEntryHeader) == 40);

// A parsed, validated view of an entry inside a segment. The referenced
// bytes live in segment memory and remain valid while the segment does.
struct LogEntryView {
  LogEntryHeader header;
  std::string_view key;
  std::string_view value;
  // The whole serialized entry (header + key + value, header.TotalLength()
  // bytes): what migration, recovery and the baseline copy verbatim, with
  // no second parse.
  const uint8_t* raw = nullptr;

  LogEntryType type() const { return header.type; }
  TableId table_id() const { return header.table_id; }
  KeyHash key_hash() const { return header.key_hash; }
  Version version() const { return header.version; }
};

// Computes the checksum an entry with these contents should carry.
uint32_t ComputeEntryChecksum(const LogEntryHeader& header, std::string_view key,
                              std::string_view value);

// Serializes an entry at `dst` (which must have header.TotalLength() bytes),
// filling in the checksum.
void WriteEntry(uint8_t* dst, LogEntryHeader header, std::string_view key,
                std::string_view value);

// Parses the entry at `src`; returns false if `available` is too small or the
// checksum does not match.
bool ReadEntry(const uint8_t* src, size_t available, LogEntryView* out);

// Walks the entries packed back to back in `bytes` (a segment's used region,
// a pull reply, a replica copy), calling `visit(offset, entry)` on each in
// order. Stops at the first entry that does not parse (a torn tail, a zero
// hole, a checksum mismatch) or when `visit` returns false. Returns the
// offset it stopped at: bytes.size() when every entry parsed and was
// visited, otherwise the offset of the entry it stopped on.
template <typename Visit>
size_t WalkEntries(std::span<const uint8_t> bytes, Visit&& visit) {
  size_t offset = 0;
  LogEntryView entry;
  while (offset < bytes.size() &&
         ReadEntry(bytes.data() + offset, bytes.size() - offset, &entry)) {
    if (!visit(offset, entry)) {
      break;
    }
    offset += entry.header.TotalLength();
  }
  return offset;
}

}  // namespace rocksteady

#endif  // ROCKSTEADY_SRC_LOG_LOG_ENTRY_H_
