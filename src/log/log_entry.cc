#include "src/log/log_entry.h"

#include "src/common/crc32c.h"

namespace rocksteady {

uint32_t ComputeEntryChecksum(const LogEntryHeader& header, std::string_view key,
                              std::string_view value) {
  LogEntryHeader scratch = header;
  scratch.checksum = 0;
  Crc32cAccumulator crc;
  crc.Update(&scratch, sizeof(scratch));
  crc.Update(key.data(), key.size());
  crc.Update(value.data(), value.size());
  return crc.result();
}

void WriteEntry(uint8_t* dst, LogEntryHeader header, std::string_view key,
                std::string_view value) {
  header.key_length = static_cast<uint16_t>(key.size());
  header.value_length = static_cast<uint32_t>(value.size());
  header.checksum = ComputeEntryChecksum(header, key, value);
  std::memcpy(dst, &header, sizeof(header));
  // Empty views can carry a null data() (e.g. a default string_view for a
  // tombstone's value); memcpy's pointer args must be non-null even for n=0.
  if (!key.empty()) {
    std::memcpy(dst + sizeof(header), key.data(), key.size());
  }
  if (!value.empty()) {
    std::memcpy(dst + sizeof(header) + key.size(), value.data(), value.size());
  }
}

bool ReadEntry(const uint8_t* src, size_t available, LogEntryView* out) {
  if (available < sizeof(LogEntryHeader)) {
    return false;
  }
  LogEntryHeader header;
  std::memcpy(&header, src, sizeof(header));
  if (header.type == LogEntryType::kInvalid || available < header.TotalLength()) {
    return false;
  }
  const char* key_start = reinterpret_cast<const char*>(src + sizeof(header));
  std::string_view key(key_start, header.key_length);
  std::string_view value(key_start + header.key_length, header.value_length);
  if (ComputeEntryChecksum(header, key, value) != header.checksum) {
    return false;
  }
  out->header = header;
  out->key = key;
  out->value = value;
  out->raw = src;
  return true;
}

}  // namespace rocksteady
