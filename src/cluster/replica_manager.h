// Master-side log replication.
//
// All of a master's replication traffic serializes through a per-master
// pipeline resource calibrated to the paper's measured ~380 MB/s ceiling
// (§2.3); durable writes see negligible pipeline delay, but bulk
// re-replication cannot exceed it.
//
// Every master replicates its log to R backups on other servers (§2: RAMCloud
// keeps one copy in DRAM and logs redundant copies to remote storage).
// Durable writes block on replication acks (the paper's 15 us writes);
// Rocksteady's contribution is precisely that *migration* does not (§3.4):
// side-log segments are replicated lazily at the end, off the fast path.
#ifndef ROCKSTEADY_SRC_CLUSTER_REPLICA_MANAGER_H_
#define ROCKSTEADY_SRC_CLUSTER_REPLICA_MANAGER_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/common/types.h"
#include "src/log/segment.h"
#include "src/rpc/rpc_system.h"

namespace rocksteady {

class ReplicaManager {
 public:
  // `owner_id`/`owner_node`: the master whose log this replicates.
  ReplicaManager(RpcSystem* rpc, ServerId owner_id, NodeId owner_node)
      : rpc_(rpc), owner_id_(owner_id), owner_node_(owner_node) {}

  void SetBackups(std::vector<NodeId> backup_nodes) { backups_ = std::move(backup_nodes); }
  const std::vector<NodeId>& backups() const { return backups_; }

  // Replicates one log append (the entry bytes at segment/offset) to every
  // backup; `done` fires when all have acked. The synchronous path under
  // every durable write. Every leg and retry shares `data`'s bytes, and so
  // do the backups' replicas: nothing is copied.
  void Replicate(uint32_t segment_id, uint32_t offset, ByteSlice data,
                 std::function<void(Status)> done);

  // Replicates a whole segment's current contents (bulk path: side-log lazy
  // replication, baseline migration re-replication). Sent as bounded
  // background-priority chunks so foreground replication interleaves.
  void ReplicateSegment(const Segment& segment, std::function<void(Status)> done);

  // One bulk chunk (background priority at the backup).
  void ReplicateBulk(uint32_t segment_id, uint32_t offset, ByteSlice data, bool seal,
                     std::function<void(Status)> done);

  // Bulk transfers are split into chunks of this size.
  static constexpr size_t kBulkChunkBytes = 64 * 1024;

  // How many times one backup leg is re-issued (each with the transport's
  // own retransmissions inside) before the failure is reported upward.
  // Bounds the wait at roughly kMaxBackupWriteAttempts * rpc_timeout_ns —
  // long enough to ride out a chaos crash-restart window, short enough
  // that a permanently dead backup cannot wedge the simulation.
  static constexpr int kMaxBackupWriteAttempts = 8;

  uint64_t bytes_replicated() const { return bytes_replicated_; }

 private:
  void Send(uint32_t segment_id, uint32_t offset, ByteSlice data, bool seal, bool bulk,
            std::function<void(Status)> done);
  void SendToBackup(NodeId backup, uint32_t segment_id, uint32_t offset, ByteSlice data,
                    bool seal, bool bulk, int attempt, std::function<void(Status)> done);

  RpcSystem* rpc_;
  ServerId owner_id_;
  NodeId owner_node_;
  std::vector<NodeId> backups_;
  uint64_t bytes_replicated_ = 0;
  // Foreground (durable writes) and bulk (lazy re-replication) traffic
  // serialize on separate pipelines: deferring re-replication off the write
  // fast path is the point of §3.4.
  Tick pipeline_free_at_ = 0;
  Tick bulk_pipeline_free_at_ = 0;
};

}  // namespace rocksteady

#endif  // ROCKSTEADY_SRC_CLUSTER_REPLICA_MANAGER_H_
