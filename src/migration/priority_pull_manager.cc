#include "src/migration/priority_pull_manager.h"

#include "src/common/logging.h"

namespace rocksteady {

Tick PriorityPullManager::OnMissingRecord(KeyHash hash) {
  Simulator& sim = target_->sim();
  if (!options_.enabled || shutdown_) {
    // Figure 9b mode: the client can only wait for background Pulls. Hint a
    // generous delay so retries don't melt the dispatch core.
    return sim.now() + target_->costs().no_priority_pull_retry_ns;
  }
  if (!scheduled_.contains(hash)) {
    scheduled_.insert(hash);
    pending_.push_back(hash);
    if (!in_flight_) {
      IssueBatch();
    }
  }
  const Tick turnaround = target_->costs().priority_pull_turnaround_ns;
  return sim.now() + turnaround + (in_flight_ ? turnaround : 0);
}

void PriorityPullManager::IssueBatch() {
  if (shutdown_ || in_flight_ || pending_.empty()) {
    return;
  }
  auto request = std::make_unique<PriorityPullRequest>();
  request->table = table_;
  const size_t batch = std::min(options_.max_batch, pending_.size());
  for (size_t i = 0; i < batch; i++) {
    request->hashes.push_back(pending_.front());
    pending_.pop_front();
  }
  in_flight_ = true;
  batches_issued_++;
  auto requested = std::make_shared<std::vector<KeyHash>>(request->hashes);
  target_->rpc().Call(
      target_->node(), source_node_, std::move(request),
      [this, requested](Status status, std::unique_ptr<RpcResponse> response) {
        if (shutdown_ || target_->crashed()) {
          return;
        }
        in_flight_ = false;
        if (status != Status::kOk) {
          // Source unreachable: re-queue the hashes (clients are waiting on
          // them) and re-drive after a pause, a bounded number of times — a
          // genuine source crash aborts us via Shutdown() instead.
          for (const KeyHash hash : *requested) {
            pending_.push_back(hash);
          }
          if (++consecutive_failures_ <= kMaxConsecutiveFailures) {
            target_->sim().After(target_->costs().recovering_retry_hint_ns, target_->node(),
                                 [this] {
              if (!shutdown_ && !target_->crashed()) {
                IssueBatch();
              }
            });
          }
          return;
        }
        consecutive_failures_ = 0;
        auto shared =
            std::make_shared<PriorityPullResponse>(static_cast<PriorityPullResponse&&>(*response));
        for (const KeyHash hash : shared->not_found) {
          known_absent_.insert(hash);
          not_found_count_++;
          scheduled_.erase(hash);
        }
        // Replay the batch on any idle worker, above client priority (these
        // records have waiting clients).
        target_->cores().EnqueueWorker(
            {Priority::kPriorityPull,
             [this, shared, requested] {
               size_t offset = 0;
               size_t replayed = 0;
               while (offset < shared->records.size()) {
                 LogEntryView entry;
                 if (!ReadEntry(shared->records.data() + offset,
                                shared->records.size() - offset, &entry)) {
                   break;
                 }
                 target_->objects().Replay(entry, side_log_);
                 scheduled_.erase(entry.key_hash());
                 replayed++;
                 records_pulled_++;
                 offset += entry.header.TotalLength();
               }
               return target_->costs().ReplayCost(replayed, shared->records.size());
             },
             [this] { IssueBatch(); }});
      },
      target_->costs().migration_rpc_timeout_ns);
}

bool PriorityPullManager::ServiceSynchronously(KeyHash hash, RpcContext* context) {
  // Naive design from §4.4: one PriorityPull per key, one worker held for
  // the full round trip.
  auto shared_context = std::make_shared<RpcContext>(std::move(*context));
  sync_pulls_++;
  target_->cores().EnqueueWorkerHeld(
      {Priority::kClient, [this, hash, shared_context](std::function<void(Tick)> finish) {
         auto request = std::make_unique<PriorityPullRequest>();
         request->table = table_;
         request->hashes.push_back(hash);
         target_->rpc().Call(
             target_->node(), source_node_, std::move(request),
             [this, hash, shared_context, finish](Status status,
                                                  std::unique_ptr<RpcResponse> response) {
               auto read_response = std::make_unique<ReadResponse>();
               Tick extra = 500;
               if (status != Status::kOk) {
                 read_response->status = Status::kRetryLater;
                 read_response->retry_after =
                     target_->sim().now() + target_->costs().no_priority_pull_retry_ns;
               } else {
                 auto& pull = static_cast<PriorityPullResponse&>(*response);
                 if (pull.record_count == 0) {
                   known_absent_.insert(hash);
                   read_response->status = Status::kObjectNotFound;
                 } else {
                   LogEntryView entry;
                   if (ReadEntry(pull.records.data(), pull.records.size(), &entry)) {
                     target_->objects().Replay(entry, side_log_);
                     read_response->value.assign(entry.value);
                     read_response->version = entry.version();
                     extra = target_->costs().ReplayCost(1, pull.records.size()) +
                             target_->costs().ReadCost(entry.value.size());
                   } else {
                     read_response->status = Status::kCorruptData;
                   }
                 }
               }
               shared_context->reply(std::move(read_response));
               finish(extra);
             },
             target_->costs().migration_rpc_timeout_ns);
       }});
  return true;
}

}  // namespace rocksteady
