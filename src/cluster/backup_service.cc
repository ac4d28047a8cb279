#include "src/cluster/backup_service.h"

#include <algorithm>
#include <cstring>
#include <limits>

namespace rocksteady {

namespace {

// True if `a` (at replica offset `a_offset`) and `b` (at `b_offset`) are
// ranges of one buffer that put the same buffer byte at the same replica
// offset: wherever both reach, they hold the same bytes. Every write of a
// master's segment has this shape (segment offset == replica offset).
// Unsigned arithmetic: the implied base may lie outside the buffer.
bool SameMapping(const ByteSlice& a, size_t a_offset, const ByteSlice& b, size_t b_offset) {
  return a.buffer() == b.buffer() &&
         reinterpret_cast<uintptr_t>(a.data()) - a_offset ==
             reinterpret_cast<uintptr_t>(b.data()) - b_offset;
}

}  // namespace

void BackupService::Write(ServerId master, uint32_t segment_id, uint32_t offset, ByteSlice data,
                          bool seal) {
  Replica& replica = segments_[{master, segment_id}];
  replica.sealed = replica.sealed || seal;
  bytes_stored_ += data.size();
  const size_t begin = offset;
  const size_t end = begin + data.size();
  replica.size = std::max(replica.size, end);
  if (data.empty()) {
    return;
  }
  std::vector<Extent>& extents = replica.extents;
  // Newest first, up to the newest extent under [begin, end): an extent of
  // the same mapping that reaches `begin` already holds (or, extended,
  // takes) these bytes — the in-order append and the retransmission. No
  // newer extent overlaps, so extending it keeps arrival order intact.
  for (size_t i = extents.size(); i-- > 0;) {
    Extent& extent = extents[i];
    if (extent.offset <= begin && begin <= extent.end() &&
        SameMapping(extent.bytes, extent.offset, data, begin)) {
      if (end > extent.end()) {
        extent.bytes.Extend(end - extent.end());
      }
      return;
    }
    if (extent.offset < end && begin < extent.end()) {
      break;  // Different bytes under this write: it must land on top.
    }
  }
  // Extents this write covers entirely can never show through again.
  std::erase_if(extents, [&](const Extent& e) { return begin <= e.offset && e.end() <= end; });
  extents.push_back(Extent{begin, std::move(data)});
  if (extents.size() > kMaxExtents) {
    ByteSlice flat = Flatten(replica);
    extents.assign(1, Extent{0, std::move(flat)});
  }
}

ByteSlice BackupService::Flatten(const Replica& replica) {
  const std::vector<Extent>& extents = replica.extents;
  if (extents.size() == 1 && extents[0].offset == 0 && extents[0].end() == replica.size) {
    return extents[0].bytes;  // One contiguous run: share it.
  }
  if (replica.size == 0) {
    return ByteSlice();
  }
  IntrusivePtr<ByteBuffer> buffer = ByteBuffer::Allocate(replica.size);
  std::memset(buffer->data(), 0, replica.size);
  for (const Extent& extent : extents) {
    std::memcpy(buffer->data() + extent.offset, extent.bytes.data(), extent.bytes.size());
  }
  return ByteSlice(std::move(buffer), 0, replica.size);
}

std::vector<RecoverySegment> BackupService::GetRecoveryData(ServerId master,
                                                            uint32_t min_segment_id) const {
  std::vector<RecoverySegment> result;
  for (auto it = segments_.lower_bound({master, min_segment_id});
       it != segments_.end() && it->first.first == master; ++it) {
    result.push_back(RecoverySegment{it->first.second, Flatten(it->second)});
  }
  return result;
}

void BackupService::FreeReplicas(ServerId master) {
  segments_.erase(segments_.lower_bound({master, 0}),
                  segments_.upper_bound({master, std::numeric_limits<uint32_t>::max()}));
}

}  // namespace rocksteady
