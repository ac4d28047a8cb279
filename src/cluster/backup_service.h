// Backup half of a RAMCloud server.
//
// Figure 1: every server runs a master and a backup. Backups store replicas
// of other masters' log segments; the bytes are real, so crash recovery can
// replay them. (The paper's backups persist to disk/flash; the simulated
// backup keeps replicas in memory, which does not change any timing the
// evaluation depends on — durable-write latency is charged by the cost
// model, not by a device model.)
//
// A replica does not copy what it is sent. It keeps each write as the
// ByteSlice it arrived in: a range of the master's own segment buffer,
// which every backup of the segment shares. Reading a replica back applies
// its writes in arrival order over zeros, so it returns exactly the bytes a
// private copy written the same way would hold — a write that never arrived
// stays a zero gap, and the backup never exposes master bytes it was not
// sent.
#ifndef ROCKSTEADY_SRC_CLUSTER_BACKUP_SERVICE_H_
#define ROCKSTEADY_SRC_CLUSTER_BACKUP_SERVICE_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/common/byte_slice.h"
#include "src/common/types.h"
#include "src/rpc/messages.h"

namespace rocksteady {

class BackupService {
 public:
  // Writes `data` at `offset` of (master, segment_id)'s replica, growing it
  // as needed. Writes normally arrive in offset order; duplicates, gaps and
  // overwrites (a restarted master rewriting a segment id) are applied in
  // arrival order like a private copy would apply them.
  void Write(ServerId master, uint32_t segment_id, uint32_t offset, ByteSlice data, bool seal);

  // All replica segments held for `master` with id >= min_segment_id, in id
  // order. A replica written as one contiguous run is returned as that very
  // slice; any other is flattened into a fresh buffer.
  std::vector<RecoverySegment> GetRecoveryData(ServerId master, uint32_t min_segment_id) const;

  // Drops replicas for `master` (after the master's data has been fully
  // recovered elsewhere).
  void FreeReplicas(ServerId master);

  uint64_t bytes_stored() const { return bytes_stored_; }
  size_t segment_count() const { return segments_.size(); }

 private:
  // One write, as the slice it arrived in.
  struct Extent {
    size_t offset = 0;
    ByteSlice bytes;

    size_t end() const { return offset + bytes.size(); }
  };

  struct Replica {
    std::vector<Extent> extents;  // Arrival order; later extents win.
    size_t size = 0;              // Highest offset + length written.
    bool sealed = false;
  };

  // A replica past this many extents is flattened into one private buffer
  // (only out-of-order or overwritten streams get there).
  static constexpr size_t kMaxExtents = 8;

  // The replica's bytes: its extents applied in order over zeros.
  static ByteSlice Flatten(const Replica& replica);

  std::map<std::pair<ServerId, uint32_t>, Replica> segments_;
  uint64_t bytes_stored_ = 0;
};

}  // namespace rocksteady

#endif  // ROCKSTEADY_SRC_CLUSTER_BACKUP_SERVICE_H_
