#include "src/log/segment.h"

#include <cassert>
#include <cstring>
#include <functional>

namespace rocksteady {

size_t Segment::AppendEntry(const LogEntryHeader& header, std::string_view key,
                            std::string_view value) {
  assert(!sealed_);
  const size_t needed = sizeof(LogEntryHeader) + key.size() + value.size();
  if (Free() < needed) {
    return SIZE_MAX;
  }
  const size_t offset = used_;
  WriteEntry(buffer_->data() + offset, header, key, value);
  used_ += needed;
  live_bytes_ += needed;
  return offset;
}

size_t Segment::AppendSerialized(const uint8_t* entry, size_t length) {
  assert(!sealed_);
  if (Free() < length) {
    return SIZE_MAX;
  }
  const size_t offset = used_;
  std::memcpy(buffer_->data() + offset, entry, length);
  used_ += length;
  live_bytes_ += length;
  return offset;
}

bool Segment::EntryAt(size_t offset, LogEntryView* out) const {
  if (offset >= used_) {
    return false;
  }
  return ReadEntry(buffer_->data() + offset, used_ - offset, out);
}

bool Segment::ForEach(const std::function<bool(size_t, const LogEntryView&)>& fn) const {
  bool stopped = false;
  const size_t end = WalkEntries(std::span(buffer_->data(), used_),
                                 [&](size_t offset, const LogEntryView& view) {
                                   stopped = !fn(offset, view);
                                   return !stopped;
                                 });
  return stopped || end == used_;
}

void Segment::AuditInvariants(AuditReport* report) const {
  if (used_ > capacity()) {
    report->Fail("segment %u: used %zu exceeds capacity %zu", id_, used_, capacity());
    return;  // Accounting is broken; walking the buffer would read past it.
  }
  if (live_bytes_ > used_) {
    report->Fail("segment %u: live bytes %zu exceed used bytes %zu", id_, live_bytes_, used_);
  }
  // ReadEntry rejects invalid types and lengths past the end, so the walk
  // tiles the used region exactly unless an entry fails to parse.
  const size_t end = WalkEntries(std::span(buffer_->data(), used_),
                                 [](size_t, const LogEntryView&) { return true; });
  if (end != used_) {
    report->Fail("segment %u: corrupt entry at offset %zu (bad checksum or truncated)", id_, end);
  }
}

}  // namespace rocksteady
