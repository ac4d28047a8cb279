#include "src/cluster/replica_manager.h"

#include <algorithm>
#include <memory>

namespace rocksteady {

void ReplicaManager::Send(uint32_t segment_id, uint32_t offset, std::vector<uint8_t> data,
                          bool seal, bool bulk, std::function<void(Status)> done) {
  if (backups_.empty()) {
    // Replication disabled (single-server unit tests).
    if (done) {
      done(Status::kOk);
    }
    return;
  }
  bytes_replicated_ += data.size() * backups_.size();
  // Serialize through the per-master replication pipeline (§2.3: ~380 MB/s).
  Simulator* sim = rpc_->SimFor(owner_node_);
  const Tick pipeline_cost = static_cast<Tick>(
      rpc_->costs()->replication_pipeline_per_byte_ns * static_cast<double>(data.size()));
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
  auto shared_data = std::make_shared<std::vector<uint8_t>>(std::move(data));
  sim->At(issue_at, owner_node_, [this, segment_id, offset, seal, bulk, state, shared_data] {
    for (const NodeId backup : backups_) {
      SendToBackup(backup, segment_id, offset, shared_data, seal, bulk, /*attempt=*/1,
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
                                  std::shared_ptr<std::vector<uint8_t>> data, bool seal, bool bulk,
                                  int attempt, std::function<void(Status)> done) {
  auto request = std::make_unique<BackupWriteRequest>();
  request->master = owner_id_;
  request->segment_id = segment_id;
  request->offset = offset;
  request->data = *data;  // Each backup (and each attempt) gets its own copy.
  request->seal = seal;
  request->bulk = bulk;
  Simulator* sim = rpc_->SimFor(owner_node_);
  rpc_->Call(
      owner_node_, backup, std::move(request),
      [this, backup, segment_id, offset, data, seal, bulk, attempt, sim,
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
        sim->After(backoff, owner_node_,
                   [this, backup, segment_id, offset, data, seal, bulk, attempt,
                    done = std::move(done)]() mutable {
          SendToBackup(backup, segment_id, offset, std::move(data), seal, bulk, attempt + 1,
                       std::move(done));
        });
      },
      rpc_->costs()->rpc_timeout_ns);
}

void ReplicaManager::Replicate(uint32_t segment_id, uint32_t offset, const uint8_t* data,
                               size_t length, std::function<void(Status)> done) {
  Send(segment_id, offset, std::vector<uint8_t>(data, data + length), false, /*bulk=*/false,
       std::move(done));
}

void ReplicaManager::ReplicateBulk(uint32_t segment_id, uint32_t offset, const uint8_t* data,
                                   size_t length, bool seal, std::function<void(Status)> done) {
  Send(segment_id, offset, std::vector<uint8_t>(data, data + length), seal, /*bulk=*/true,
       std::move(done));
}

void ReplicaManager::ReplicateSegment(const Segment& segment, std::function<void(Status)> done) {
  // Bulk path: split into bounded chunks at background priority so backups
  // interleave foreground write replication between them.
  constexpr size_t kChunk = kBulkChunkBytes;
  const size_t total = segment.used();
  if (total == 0) {
    if (done) {
      done(Status::kOk);
    }
    return;
  }
  struct FanIn {
    size_t remaining;
    Status worst = Status::kOk;
    std::function<void(Status)> done;
  };
  auto fan = std::make_shared<FanIn>();
  fan->remaining = (total + kChunk - 1) / kChunk;
  fan->done = std::move(done);
  for (size_t offset = 0; offset < total; offset += kChunk) {
    const size_t length = std::min(kChunk, total - offset);
    const bool last = offset + length >= total;
    Send(segment.id(), static_cast<uint32_t>(offset),
         std::vector<uint8_t>(segment.data() + offset, segment.data() + offset + length), last,
         /*bulk=*/true, [fan](Status status) {
           if (status != Status::kOk) {
             fan->worst = status;
           }
           if (--fan->remaining == 0 && fan->done) {
             fan->done(fan->worst);
           }
         });
  }
}

}  // namespace rocksteady
