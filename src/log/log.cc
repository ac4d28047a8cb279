#include "src/log/log.h"

#include <algorithm>
#include <cassert>

#include "src/common/logging.h"

namespace rocksteady {

Segment* Log::Head() {
  if (segments_.empty() || segments_.back()->sealed()) {
    auto segment = std::make_unique<Segment>(next_segment_id_++, segment_size_);
    Register(segment.get());
    segments_.push_back(std::move(segment));
  }
  return segments_.back().get();
}

template <typename AppendTo>
Result<LogRef> Log::AppendAtHead(size_t needed, const AppendTo& append_to) {
  if (needed > segment_size_) {
    return Status::kNoSpace;
  }
  Segment* head = Head();
  size_t offset = append_to(head);
  if (offset == SIZE_MAX) {
    head->Seal();
    head = Head();
    offset = append_to(head);
    assert(offset != SIZE_MAX);
  }
  stats_.appended_bytes += needed;
  stats_.appended_entries++;
  return LogRef(head->id(), static_cast<uint32_t>(offset));
}

Result<LogRef> Log::Append(LogEntryType type, TableId table, KeyHash hash, std::string_view key,
                           std::string_view value, Version version) {
  LogEntryHeader header;
  header.type = type;
  header.table_id = table;
  header.key_hash = hash;
  header.version = version;
  return AppendAtHead(sizeof(LogEntryHeader) + key.size() + value.size(),
                      [&](Segment* head) { return head->AppendEntry(header, key, value); });
}

Result<LogRef> Log::AppendSerialized(const LogEntryView& entry) {
  const size_t length = entry.header.TotalLength();
  return AppendAtHead(length,
                      [&](Segment* head) { return head->AppendSerialized(entry.raw, length); });
}

Result<LogRef> Log::AppendObject(TableId table, KeyHash hash, std::string_view key,
                                 std::string_view value, Version version) {
  return Append(LogEntryType::kObject, table, hash, key, value, version);
}

Result<LogRef> Log::AppendTombstone(TableId table, KeyHash hash, std::string_view key,
                                    Version version) {
  return Append(LogEntryType::kTombstone, table, hash, key, {}, version);
}

bool Log::Read(LogRef ref, LogEntryView* out) const {
  if (!ref.valid()) {
    return false;
  }
  const Segment* segment = FindSegment(ref.segment_id());
  if (segment == nullptr) {
    return false;
  }
  return segment->EntryAt(ref.offset(), out);
}

bool Log::EntrySlice(LogRef ref, ByteSlice* out) const {
  LogEntryView view;
  if (!Read(ref, &view)) {
    return false;
  }
  *out = FindSegment(ref.segment_id())->Slice(ref.offset(), view.header.TotalLength());
  return true;
}

void Log::MarkDead(LogRef ref) {
  LogEntryView view;
  if (Read(ref, &view)) {
    MarkDead(ref, view);
  }
}

void Log::MarkDead(LogRef ref, const LogEntryView& entry) {
  Segment* segment = FindSegment(ref.segment_id());
  if (segment == nullptr) {
    return;
  }
  segment->SubLive(entry.header.TotalLength());
  stats_.dead_bytes += entry.header.TotalLength();
}

void Log::Register(Segment* segment) {
  if (segment->id() >= registry_.size()) {
    registry_.resize(static_cast<size_t>(segment->id()) + 1, nullptr);
  }
  registry_[segment->id()] = segment;
}

std::unique_ptr<Segment> Log::AllocateSideSegment() {
  auto segment = std::make_unique<Segment>(next_segment_id_++, segment_size_);
  Register(segment.get());
  return segment;
}

void Log::AdoptSideSegments(std::vector<std::unique_ptr<Segment>> segments) {
  if (segments.empty()) {
    return;
  }
  // The commit record names the adopted segment ids in its value so recovery
  // can tell these segments belong to this log.
  std::string ids;
  for (const auto& segment : segments) {
    const uint32_t id = segment->id();
    ids.append(reinterpret_cast<const char*>(&id), sizeof(id));
  }
  Append(LogEntryType::kSideLogCommit, 0, 0, {}, ids, 0);
  // Seal the current head: sorting by id below may displace it from the back
  // of the list, and an open segment that is not the head would violate the
  // committed-vs-open ordering invariant (appends go only to the back).
  if (!segments_.empty()) {
    segments_.back()->Seal();
  }
  for (auto& segment : segments) {
    segment->Seal();
    stats_.appended_bytes += segment->used();
    ROCKSTEADY_DCHECK(FindSegment(segment->id()) == segment.get());
    segments_.push_back(std::move(segment));
  }
  // Keep iteration order deterministic: id order equals append order here
  // except for adopted side segments, so sort by id.
  std::sort(segments_.begin(), segments_.end(),
            [](const auto& a, const auto& b) { return a->id() < b->id(); });
}

void Log::DropSideSegment(std::unique_ptr<Segment> segment) {
  registry_[segment->id()] = nullptr;
}

void Log::ForEachEntry(const std::function<void(LogRef, const LogEntryView&)>& fn) const {
  for (const auto& segment : segments_) {
    segment->ForEach([&](size_t offset, const LogEntryView& view) {
      fn(LogRef(segment->id(), static_cast<uint32_t>(offset)), view);
      return true;
    });
  }
}

void Log::FreeSegment(uint32_t segment_id) {
  auto it = std::find_if(segments_.begin(), segments_.end(),
                         [&](const auto& s) { return s->id() == segment_id; });
  if (it == segments_.end()) {
    LOG_WARNING("FreeSegment: unknown segment %u", segment_id);
    return;
  }
  registry_[segment_id] = nullptr;
  segments_.erase(it);
  stats_.cleaned_segments++;
}

LogPosition Log::HeadPosition() const {
  if (segments_.empty()) {
    return {0, 0};
  }
  const Segment* head = segments_.back().get();
  return {head->id(), static_cast<uint32_t>(head->used())};
}

uint64_t Log::live_bytes() const {
  uint64_t total = 0;
  for (const auto& segment : segments_) {
    total += segment->live_bytes();
  }
  return total;
}

uint64_t Log::total_bytes() const {
  uint64_t total = 0;
  for (const auto& segment : segments_) {
    total += segment->used();
  }
  return total;
}

uint64_t Log::allocated_bytes() const {
  // Sum over the registry: main plus uncommitted side segments.
  uint64_t total = 0;
  for (const Segment* segment : registry_) {
    if (segment != nullptr) {
      total += segment->capacity();
    }
  }
  return total;
}

void Log::AuditInvariants(AuditReport* report) const {
  uint32_t previous_id = 0;
  for (size_t i = 0; i < segments_.size(); i++) {
    const Segment* segment = segments_[i].get();
    if (i > 0 && segment->id() <= previous_id) {
      report->Fail("log: segment ids not strictly increasing (%u after %u)", segment->id(),
                   previous_id);
    }
    previous_id = segment->id();
    if (segment->id() >= next_segment_id_) {
      report->Fail("log: segment %u at or beyond allocation cursor %u", segment->id(),
                   next_segment_id_);
    }
    // Committed-vs-open ordering: appends go only to the back, so every
    // earlier segment must be sealed.
    if (i + 1 < segments_.size() && !segment->sealed()) {
      report->Fail("log: non-head segment %u is not sealed", segment->id());
    }
    const Segment* registered = FindSegment(segment->id());
    if (registered == nullptr) {
      report->Fail("log: owned segment %u missing from registry", segment->id());
    } else if (registered != segment) {
      report->Fail("log: registry entry for segment %u points elsewhere", segment->id());
    }
    segment->AuditInvariants(report);
  }
  // The registry may only exceed the owned list by uncommitted side
  // segments, which must not be sealed (sealing happens at commit) and must
  // also be below the allocation cursor. The walk is in id order, so a
  // failing audit prints (and hashes) identically across runs.
  for (uint32_t id = 0; id < registry_.size(); id++) {
    const Segment* segment = registry_[id];
    if (segment == nullptr) {
      continue;
    }
    if (segment->id() != id) {
      report->Fail("log: registry slot %u holds segment %u", id, segment->id());
    }
    if (id >= next_segment_id_) {
      report->Fail("log: registered segment %u at or beyond allocation cursor %u", id,
                   next_segment_id_);
    }
    const bool owned =
        std::any_of(segments_.begin(), segments_.end(),
                    [&](const auto& s) { return s.get() == segment; });
    if (!owned && segment->sealed()) {
      report->Fail("log: uncommitted side segment %u is sealed", id);
    }
  }
  if (live_bytes() > total_bytes()) {
    report->Fail("log: live bytes %llu exceed total bytes %llu",
                 static_cast<unsigned long long>(live_bytes()),
                 static_cast<unsigned long long>(total_bytes()));
  }
}

}  // namespace rocksteady
