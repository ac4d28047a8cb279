#include "src/log/side_log.h"

#include <cassert>

namespace rocksteady {

SideLog::~SideLog() {
  // Uncommitted segments are dropped; committing must be explicit.
  Abort();
}

Result<LogRef> SideLog::AppendSerialized(const LogEntryView& entry) {
  const size_t length = entry.header.TotalLength();
  if (length > parent_->segment_size()) {
    return Status::kNoSpace;
  }
  if (segments_.empty() || segments_.back()->Free() < length) {
    segments_.push_back(parent_->AllocateSideSegment());
  }
  Segment* segment = segments_.back().get();
  const size_t offset = segment->AppendSerialized(entry.raw, length);
  assert(offset != SIZE_MAX);
  pending_bytes_ += length;
  pending_entries_++;
  return LogRef(segment->id(), static_cast<uint32_t>(offset));
}

void SideLog::Commit() {
  parent_->AdoptSideSegments(std::move(segments_));
  segments_.clear();
  pending_bytes_ = 0;
  pending_entries_ = 0;
}

void SideLog::AuditInvariants(AuditReport* report) const {
  size_t bytes = 0;
  size_t entries = 0;
  for (const auto& segment : segments_) {
    if (segment->sealed()) {
      report->Fail("sidelog: pending segment %u is sealed before commit", segment->id());
    }
    if (parent_->FindSegment(segment->id()) != segment.get()) {
      report->Fail("sidelog: segment %u not readable through parent log", segment->id());
    }
    for (const auto& owned : parent_->segments()) {
      if (owned->id() == segment->id()) {
        report->Fail("sidelog: uncommitted segment %u visible in parent's durable log",
                     segment->id());
      }
    }
    segment->AuditInvariants(report);
    bytes += segment->used();
    segment->ForEach([&](size_t, const LogEntryView&) {
      entries++;
      return true;
    });
  }
  if (bytes != pending_bytes_) {
    report->Fail("sidelog: pending_bytes %zu but segments hold %zu", pending_bytes_, bytes);
  }
  if (entries != pending_entries_) {
    report->Fail("sidelog: pending_entries %zu but segments hold %zu", pending_entries_, entries);
  }
}

void SideLog::Abort() {
  for (auto& segment : segments_) {
    parent_->DropSideSegment(std::move(segment));
  }
  segments_.clear();
  pending_bytes_ = 0;
  pending_entries_ = 0;
}

}  // namespace rocksteady
