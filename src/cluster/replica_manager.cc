#include "src/cluster/replica_manager.h"

#include <algorithm>
#include <memory>

namespace rocksteady {

void ReplicaManager::Replicate(ReplicaChunk chunk, bool bulk, std::function<void(Status)> done) {
  if (backups_.empty()) {
    // Replication disabled (single-server unit tests).
    if (done) {
      done(Status::kOk);
    }
    return;
  }
  bytes_replicated_ += chunk.data.size() * backups_.size();
  // Serialize through the per-master replication pipeline (§2.3: ~380 MB/s).
  Simulator* sim = rpc_->SimFor(owner_node_);
  const Tick pipeline_cost = static_cast<Tick>(
      rpc_->costs()->replication_pipeline_per_byte_ns * static_cast<double>(chunk.data.size()));
  Tick& pipeline = bulk ? bulk_pipeline_free_at_ : pipeline_free_at_;
  pipeline = std::max(sim->now(), pipeline) + pipeline_cost;
  const Tick issue_at = pipeline;
  // Fan out to every backup; complete when all ack. Backup writes are
  // idempotent (same bytes at the same offset), so each leg retries through
  // the transport's at-least-once machinery and then — to ride out a backup
  // crash-restart window — re-issues the whole RPC a bounded number of
  // times before reporting the error up.
  struct FanOut {
    size_t remaining;
    Status worst = Status::kOk;
    std::function<void(Status)> done;
  };
  auto state = std::make_shared<FanOut>();
  state->remaining = backups_.size();
  state->done = std::move(done);
  sim->At(issue_at, owner_node_, [this, segment_id = chunk.segment_id, offset = chunk.offset,
                                   seal = chunk.seal, bulk, state, data = std::move(chunk.data)] {
    for (const NodeId backup : backups_) {
      SendToBackup(backup, segment_id, offset, data, seal, bulk, /*attempt=*/1,
                   [state](Status status) {
                     if (status != Status::kOk) {
                       state->worst = status;
                     }
                     if (--state->remaining == 0 && state->done) {
                       state->done(state->worst);
                     }
                   });
    }
  });
}

void ReplicaManager::SendToBackup(NodeId backup, uint32_t segment_id, uint32_t offset,
                                  ByteSlice data, bool seal, bool bulk, int attempt,
                                  std::function<void(Status)> done) {
  auto request = std::make_unique<BackupWriteRequest>();
  request->master = owner_id_;
  request->segment_id = segment_id;
  request->offset = offset;
  request->data = data;  // Every backup and attempt shares the bytes.
  request->seal = seal;
  request->bulk = bulk;
  // The callback's captures fill its inline buffer exactly: add none.
  rpc_->Call(
      owner_node_, backup, std::move(request),
      [this, backup, segment_id, offset, data = std::move(data), seal, bulk, attempt,
       done = std::move(done)](Status status, std::unique_ptr<RpcResponse> response) mutable {
        if (status == Status::kOk && response->status != Status::kRetryLater) {
          done(response->status);
          return;
        }
        // Transport failure, or the backup's admission control shed the
        // write (kRetryLater): both re-issue below with seeded backoff.
        if (status == Status::kOk) {
          status = response->status;
        }
        if (attempt >= kMaxBackupWriteAttempts) {
          done(status);
          return;
        }
        // The backup may be mid-crash-restart; its frame store survives, so
        // re-issuing the same idempotent write is always safe.
        const Tick backoff = std::min<Tick>(rpc_->costs()->retry_backoff_min_ns << attempt,
                                            rpc_->costs()->wrong_server_backoff_max_ns) +
                             rpc_->CallerRng(owner_node_).Uniform(rpc_->costs()->retry_backoff_min_ns);
        rpc_->SimFor(owner_node_)->After(
            backoff, owner_node_,
            [this, backup, segment_id, offset, data, seal, bulk, attempt,
             done = std::move(done)]() mutable {
              SendToBackup(backup, segment_id, offset, std::move(data), seal, bulk, attempt + 1,
                           std::move(done));
            });
      },
      rpc_->costs()->rpc_timeout_ns);
}

std::vector<ReplicaChunk> ReplicaManager::SliceRange(
    const std::vector<std::unique_ptr<Segment>>& segments, LogPosition begin, LogPosition end,
    bool seal) {
  std::vector<ReplicaChunk> chunks;
  for (const auto& segment : segments) {
    if (segment->id() < begin.first || segment->id() > end.first) {
      continue;
    }
    const size_t from = segment->id() == begin.first ? begin.second : 0;
    const size_t to = segment->id() == end.first ? end.second : segment->used();
    for (size_t offset = from; offset < to; offset += kBulkChunkBytes) {
      const size_t length = std::min(kBulkChunkBytes, to - offset);
      chunks.push_back(ReplicaChunk{segment->id(), static_cast<uint32_t>(offset),
                                    segment->Slice(offset, length),
                                    seal && offset + length >= to});
    }
  }
  return chunks;
}

}  // namespace rocksteady
