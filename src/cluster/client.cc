#include "src/cluster/client.h"

#include <algorithm>
#include <map>

#include "src/common/logging.h"

namespace rocksteady {

RamCloudClient::RamCloudClient(Coordinator* coordinator, const CostModel* costs, int lane)
    : coordinator_(coordinator), costs_(costs) {
  endpoint_ = coordinator_->rpc().CreateEndpoint(nullptr, lane);
  sim_ = endpoint_->sim();
  rng_ = &coordinator_->rpc().CallerRng(endpoint_->node());
}

bool RamCloudClient::CachedOwner(TableId table, KeyHash hash, NodeId* node) const {
  for (const auto& entry : cache_) {
    if (entry.table == table && entry.start_hash <= hash && hash <= entry.end_hash) {
      *node = entry.owner_node;
      return true;
    }
  }
  return false;
}

void RamCloudClient::RefreshConfig(TableId table, std::function<void()> then) {
  auto request = std::make_unique<GetTableConfigRequest>();
  request->table = table;
  coordinator_->rpc().Call(
      node(), coordinator_->node(), std::move(request),
      [this, table, then = std::move(then)](Status status,
                                            std::unique_ptr<RpcResponse> response) {
        if (status == Status::kOk && response->status == Status::kOk) {
          auto& config = static_cast<GetTableConfigResponse&>(*response);
          std::erase_if(cache_, [&](const TabletConfigEntry& e) { return e.table == table; });
          cache_.insert(cache_.end(), config.tablets.begin(), config.tablets.end());
        }
        then();
      },
      costs_->rpc_timeout_ns);
}

RamCloudClient::RetryState* RamCloudClient::AllocState(TableId table) {
  CheckOwner();
  RetryState* s = free_states_;
  if (s != nullptr) {
    free_states_ = s->next_free;
  } else {
    states_.push_back(std::make_unique<RetryState>());
    s = states_.back().get();
  }
  s->table = table;
  s->attempts_left = kMaxAttempts;
  s->next_free = nullptr;
  return s;
}

void RamCloudClient::FreeState(RetryState* s) {
  // The go closure is deliberately NOT destroyed here: a synchronous Report
  // from inside an executing go (e.g. a cache miss on the final attempt)
  // reaches this point with that closure's frame still on the stack. The
  // slot's next user overwrites it instead.
  s->done = nullptr;
  s->read_done = nullptr;
  // clear() (not = {}) so key/value/payload capacity survives for the next
  // op through this slot — the whole point of pooling the strings here.
  s->payload.clear();
  s->next_free = free_states_;
  free_states_ = s;
}

void RamCloudClient::Retry(RetryState* s) {
  s->attempts_left--;
  s->go();
}

void RamCloudClient::Finish(RetryState* s, Status status) {
  // Move the continuation out before invoking it: it may synchronously
  // issue a new op (and that op must not see a half-retired slot).
  if (s->read_done) {
    ReadCallback done = std::move(s->read_done);
    done(status, s->payload);
  } else {
    DoneCallback done = std::move(s->done);
    done(status);
  }
  FreeState(s);
}

void RamCloudClient::Report(RetryState* s, Status status, Tick hint) {
  Simulator& sim = *sim_;
  if (status == Status::kOk) {
    ops_completed_++;
    Finish(s, status);
    return;
  }
  if (s->attempts_left <= 1) {
    ops_failed_++;
    Finish(s, Status::kServerDown);
    return;
  }
  switch (status) {
    case Status::kWrongServer:
    case Status::kTableNotFound: {
      wrong_server_retries_++;
      // Escalating backoff: repeated kWrongServer for the same op means
      // the map is *still* stale (e.g. a pre-copy freeze window before
      // the coordinator learns the new owner) — don't hammer.
      const int attempt = kMaxAttempts - s->attempts_left;
      const Tick backoff =
          attempt <= 1 ? 0
                       : std::min<Tick>(static_cast<Tick>(attempt) *
                                            costs_->wrong_server_backoff_step_ns,
                                        costs_->wrong_server_backoff_max_ns);
      sim.After(backoff, node(), [this, s] { RefreshConfig(s->table, [this, s] { Retry(s); }); });
      return;
    }
    case Status::kRetryLater: {
      retry_later_retries_++;
      const Tick jitter = rng_->UniformRange(costs_->retry_backoff_min_ns,
                                             costs_->retry_backoff_max_ns);
      const Tick at = std::max(hint, sim.now()) + jitter;
      sim.At(at, node(), [this, s] { Retry(s); });
      return;
    }
    case Status::kServerDown:
      server_down_retries_++;
      // Likely a crash: wait for recovery to make progress, then refresh.
      sim.After(costs_->recovering_retry_hint_ns, node(),
                [this, s] { RefreshConfig(s->table, [this, s] { Retry(s); }); });
      return;
    default:
      // kObjectNotFound is a legitimate outcome, not a failure.
      if (status == Status::kObjectNotFound) {
        ops_completed_++;
      } else {
        ops_failed_++;
      }
      Finish(s, status);
      return;
  }
}

void RamCloudClient::Read(TableId table, std::string_view key, ReadCallback done) {
  const KeyHash hash = HashKey(table, key);
  RetryState* s = AllocState(table);
  s->read_done = std::move(done);
  s->key.assign(key);
  s->go = [this, s, hash] {
    NodeId owner;
    if (!CachedOwner(s->table, hash, &owner)) {
      Report(s, Status::kWrongServer, 0);
      return;
    }
    auto request = std::make_unique<ReadRequest>();
    request->table = s->table;
    request->key = s->key;
    request->hash = hash;
    coordinator_->rpc().Call(
        node(), owner, std::move(request),
        [this, s](Status status, std::unique_ptr<RpcResponse> response) {
          if (status != Status::kOk) {
            Report(s, status, 0);
            return;
          }
          auto& read = static_cast<ReadResponse&>(*response);
          if (read.status == Status::kOk) {
            s->payload = std::move(read.value);
          }
          Report(s, read.status, read.retry_after);
        },
        costs_->rpc_timeout_ns);
  };
  s->go();
}

void RamCloudClient::Write(TableId table, std::string_view key, std::string_view value,
                           DoneCallback done, std::string_view secondary_key) {
  const KeyHash hash = HashKey(table, key);
  RetryState* s = AllocState(table);
  s->done = std::move(done);
  s->key.assign(key);
  s->value.assign(value);
  s->secondary.assign(secondary_key);
  s->go = [this, s, hash] {
    NodeId owner;
    if (!CachedOwner(s->table, hash, &owner)) {
      Report(s, Status::kWrongServer, 0);
      return;
    }
    auto request = std::make_unique<WriteRequest>();
    request->table = s->table;
    request->key = s->key;
    request->hash = hash;
    request->value = s->value;
    request->secondary_key = s->secondary;
    coordinator_->rpc().Call(
        node(), owner, std::move(request),
        [this, s](Status status, std::unique_ptr<RpcResponse> response) {
          const Tick hint =
              status == Status::kOk ? static_cast<WriteResponse&>(*response).retry_after : 0;
          Report(s, status == Status::kOk ? response->status : status, hint);
        },
        costs_->rpc_timeout_ns);
  };
  s->go();
}

void RamCloudClient::Remove(TableId table, std::string_view key, DoneCallback done) {
  const KeyHash hash = HashKey(table, key);
  RetryState* s = AllocState(table);
  s->done = std::move(done);
  s->key.assign(key);
  s->go = [this, s, hash] {
    NodeId owner;
    if (!CachedOwner(s->table, hash, &owner)) {
      Report(s, Status::kWrongServer, 0);
      return;
    }
    auto request = std::make_unique<RemoveRequest>();
    request->table = s->table;
    request->key = s->key;
    request->hash = hash;
    coordinator_->rpc().Call(
        node(), owner, std::move(request),
        [this, s](Status status, std::unique_ptr<RpcResponse> response) {
          const Tick hint =
              status == Status::kOk ? static_cast<RemoveResponse&>(*response).retry_after : 0;
          Report(s, status == Status::kOk ? response->status : status, hint);
        },
        costs_->rpc_timeout_ns);
  };
  s->go();
}

void RamCloudClient::MultiGet(TableId table, std::vector<std::string> keys, DoneCallback done) {
  RetryState* s = AllocState(table);
  s->done = std::move(done);
  s->go = [this, s, keys = std::move(keys)] {
    // Group keys by owning server (the cluster-load effect Figure 3
    // measures: spread N means N parallel RPCs for the same 7 keys).
    std::map<NodeId, std::unique_ptr<MultiGetRequest>> groups;
    for (const auto& key : keys) {
      const KeyHash hash = HashKey(s->table, key);
      NodeId owner;
      if (!CachedOwner(s->table, hash, &owner)) {
        Report(s, Status::kWrongServer, 0);
        return;
      }
      auto& request = groups[owner];
      if (request == nullptr) {
        request = std::make_unique<MultiGetRequest>();
        request->table = s->table;
      }
      request->keys.push_back(key);
      request->hashes.push_back(hash);
    }
    struct Aggregate {
      size_t remaining = 0;
      Status worst = Status::kOk;
      Tick hint = 0;
      RetryState* s = nullptr;
    };
    auto aggregate = std::make_shared<Aggregate>();
    aggregate->remaining = groups.size();
    aggregate->s = s;
    for (auto& [owner, request] : groups) {
      coordinator_->rpc().Call(
          node(), owner, std::move(request),
          [this, aggregate](Status status, std::unique_ptr<RpcResponse> response) {
            Status effective = status;
            Tick hint = 0;
            if (status == Status::kOk) {
              auto& multi = static_cast<MultiGetResponse&>(*response);
              effective = multi.status;
              hint = multi.retry_after;
            }
            if (effective != Status::kOk && aggregate->worst == Status::kOk) {
              aggregate->worst = effective;
            }
            aggregate->hint = std::max(aggregate->hint, hint);
            if (--aggregate->remaining == 0) {
              Report(aggregate->s, aggregate->worst, aggregate->hint);
            }
          },
          costs_->rpc_timeout_ns);
    }
  };
  s->go();
}

void RamCloudClient::IndexScan(TableId table, uint8_t index_id, std::string start_key,
                               uint32_t count, DoneCallback done) {
  RetryState* s = AllocState(table);
  s->done = std::move(done);
  s->go = [this, s, index_id, start_key = std::move(start_key), count] {
    const auto* config = coordinator_->GetIndexConfig(s->table, index_id);
    if (config == nullptr) {
      Report(s, Status::kTableNotFound, 0);
      return;
    }
    NodeId indexlet_node = 0;
    bool found = false;
    for (const auto& indexlet : *config) {
      if (start_key >= indexlet.start_key &&
          (indexlet.end_key.empty() || start_key < indexlet.end_key)) {
        indexlet_node = indexlet.owner_node;
        found = true;
        break;
      }
    }
    if (!found) {
      Report(s, Status::kTableNotFound, 0);
      return;
    }
    auto lookup = std::make_unique<IndexLookupRequest>();
    lookup->table = s->table;
    lookup->index_id = index_id;
    lookup->start_key = start_key;
    lookup->count = count;
    coordinator_->rpc().Call(
        node(), indexlet_node, std::move(lookup),
        [this, s](Status status, std::unique_ptr<RpcResponse> response) {
          if (status != Status::kOk) {
            Report(s, status, 0);
            return;
          }
          auto& lookup_response = static_cast<IndexLookupResponse&>(*response);
          if (lookup_response.status != Status::kOk) {
            Report(s, lookup_response.status, 0);
            return;
          }
          if (lookup_response.hashes.empty()) {
            Report(s, Status::kOk, 0);
            return;
          }
          // Phase 2: fetch the records by hash, grouped per backing tablet
          // owner (index holds hashes, not records — Figure 2).
          std::map<NodeId, std::unique_ptr<MultiGetHashRequest>> groups;
          for (const KeyHash hash : lookup_response.hashes) {
            NodeId owner;
            if (!CachedOwner(s->table, hash, &owner)) {
              Report(s, Status::kWrongServer, 0);
              return;
            }
            auto& request = groups[owner];
            if (request == nullptr) {
              request = std::make_unique<MultiGetHashRequest>();
              request->table = s->table;
            }
            request->hashes.push_back(hash);
          }
          struct Aggregate {
            size_t remaining = 0;
            Status worst = Status::kOk;
            Tick hint = 0;
            RetryState* s = nullptr;
          };
          auto aggregate = std::make_shared<Aggregate>();
          aggregate->remaining = groups.size();
          aggregate->s = s;
          for (auto& [owner, request] : groups) {
            coordinator_->rpc().Call(
                node(), owner, std::move(request),
                [this, aggregate](Status status, std::unique_ptr<RpcResponse> response) {
                  Status effective = status;
                  Tick hint = 0;
                  if (status == Status::kOk) {
                    auto& multi = static_cast<MultiGetHashResponse&>(*response);
                    effective = multi.status;
                    hint = multi.retry_after;
                  }
                  if (effective != Status::kOk && aggregate->worst == Status::kOk) {
                    aggregate->worst = effective;
                  }
                  aggregate->hint = std::max(aggregate->hint, hint);
                  if (--aggregate->remaining == 0) {
                    Report(aggregate->s, aggregate->worst, aggregate->hint);
                  }
                },
                costs_->rpc_timeout_ns);
          }
        },
        costs_->rpc_timeout_ns);
  };
  s->go();
}

}  // namespace rocksteady
