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
#include "src/log/log.h"
#include "src/rpc/rpc_system.h"

namespace rocksteady {

// A slice of a segment's buffer at its real (segment id, offset): the unit
// in which replayed log ranges are re-replicated.
struct ReplicaChunk {
  uint32_t segment_id = 0;
  uint32_t offset = 0;
  ByteSlice data;
  bool seal = false;
};

class ReplicaManager {
 public:
  // `owner_id`/`owner_node`: the master whose log this replicates.
  ReplicaManager(RpcSystem* rpc, ServerId owner_id, NodeId owner_node)
      : rpc_(rpc), owner_id_(owner_id), owner_node_(owner_node) {}

  void SetBackups(std::vector<NodeId> backup_nodes) { backups_ = std::move(backup_nodes); }
  const std::vector<NodeId>& backups() const { return backups_; }

  // Replicates `chunk` to every backup; `done` fires when all have acked.
  // Foreground chunks (`bulk` false) are the synchronous path under every
  // durable write; bulk chunks serialize on their own pipeline and run at
  // background priority at the backup. Every leg and retry shares the
  // chunk's bytes, and so do the backups' replicas: nothing is copied.
  void Replicate(ReplicaChunk chunk, bool bulk, std::function<void(Status)> done);

  // Cuts the bytes between `begin` and `end` of `segments` (a log's or a
  // side log's, in id order) into chunks of at most kBulkChunkBytes that
  // share the segments' buffers. With `seal`, each segment's last chunk is
  // marked sealed: the caller appends nothing more to it.
  static std::vector<ReplicaChunk> SliceRange(
      const std::vector<std::unique_ptr<Segment>>& segments, LogPosition begin, LogPosition end,
      bool seal);

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
