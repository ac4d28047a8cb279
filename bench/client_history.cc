#include "bench/client_history.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "src/common/hash.h"

namespace rocksteady {
namespace {

// Written and loaded values are full-size records (§4.1: 100 B payloads).
constexpr size_t kValueLength = 100;
// Key draws a write may take to land on an owned key before it becomes a
// read (one in ~N draws lands, with N clients).
constexpr int kMaxKeyDraws = 64;

}  // namespace

ClientHistory::ClientHistory(RamCloudClient* client, TableId table, size_t index,
                             size_t clients, Tick stop, ChooseOp choose, OpGap gap,
                             size_t max_in_flight)
    : client_(client),
      table_(table),
      index_(index),
      clients_(clients),
      stop_(stop),
      choose_(std::move(choose)),
      gap_(std::move(gap)),
      max_in_flight_(max_in_flight) {}

void ClientHistory::Start() {
  const Tick first = gap_(client_->rng(), 0) * static_cast<Tick>(index_ + 1);
  client_->sim().At(first, client_->node(), [this] { Arrive(); });
}

bool ClientHistory::Owns(const std::string& key) const {
  return HashKey(table_, key) % clients_ == index_;
}

void ClientHistory::Arrive() {
  Simulator& sim = client_->sim();
  const Tick now = sim.now();
  if (now >= stop_) {
    return;
  }
  sim.After(gap_(client_->rng(), now) * static_cast<Tick>(clients_), [this] { Arrive(); });
  YcsbWorkload::Op op = choose_(client_->rng(), now);
  // A write goes to a key this client owns: redraw the key from the suite's
  // choice until it is one, so the suite's read/write mix holds at any
  // client count.
  for (int draws = 1; !op.is_read && !Owns(op.key); draws++) {
    op.is_read = draws == kMaxKeyDraws;
    op.key = choose_(client_->rng(), now).key;
  }
  const size_t index = ops_.size();
  ops_.push_back(OpRecord{.issued = now, .is_read = op.is_read});
  if (ops_in_flight_ < max_in_flight_) {
    Issue(index, std::move(op.key));
  } else {
    backlog_.emplace_back(index, std::move(op.key));
  }
}

void ClientHistory::Issue(size_t index, std::string key) {
  ops_in_flight_++;
  OpRecord& op = ops_[index];
  // A write to a key with a write in flight becomes a read.
  if (!op.is_read && in_flight_.contains(key)) {
    op.is_read = true;
  }
  if (op.is_read) {
    client_->Read(table_, key,
                  [this, index](Status status, const std::string&) { Complete(index, status); });
    return;
  }
  // Unique per write: "c<client>-<op>", padded to a full record.
  char tag[48];
  const int tag_length = std::snprintf(tag, sizeof(tag), "c%zu-%zu", index_, index);
  std::string value(kValueLength, 'w');
  value.replace(0, static_cast<size_t>(tag_length), tag);
  KeyState* state = &writes_[key];
  in_flight_.insert(key);
  client_->Write(table_, key, value,
                 [this, index, state, key, value](Status status) {
                   in_flight_.erase(key);
                   if (status == Status::kOk) {
                     state->acked = true;
                     state->last_acked = value;
                   } else {
                     state->failed_values.insert(value);
                   }
                   Complete(index, status);
                 });
}

void ClientHistory::Complete(size_t op, Status status) {
  ops_[op].completed = client_->sim().now();
  ops_[op].status = status;
  ops_in_flight_--;
  while (ops_in_flight_ < max_in_flight_ && !backlog_.empty()) {
    auto [next, key] = std::move(backlog_.front());
    backlog_.pop_front();
    Issue(next, std::move(key));
  }
}

ClientHistories StartClientHistories(Cluster& cluster, TableId table, Tick stop,
                                     const ClientHistory::ChooseOp& choose,
                                     const ClientHistory::OpGap& gap, size_t max_in_flight) {
  ClientHistories histories;
  for (size_t c = 0; c < cluster.num_clients(); c++) {
    histories.push_back(std::make_unique<ClientHistory>(&cluster.client(c), table, c,
                                                        cluster.num_clients(), stop,
                                                        choose, gap, max_in_flight));
    histories.back()->Start();
  }
  return histories;
}

ClientHistory::OpGap PoissonGap(double aggregate_ops_per_second) {
  return [aggregate_ops_per_second](Random& rng, Tick) {
    const double u = std::max(1e-12, rng.NextDouble());
    const double gap_seconds = -std::log(u) / aggregate_ops_per_second;
    return std::max<Tick>(1, static_cast<Tick>(gap_seconds * static_cast<double>(kSecond)));
  };
}

ClientHistory::ChooseOp YcsbBChoice(uint64_t records, double theta) {
  YcsbConfig config = YcsbConfig::WorkloadB();
  config.num_records = records;
  config.theta = theta;
  return [workload = std::make_shared<const YcsbWorkload>(config)](Random& rng, Tick) {
    return workload->NextOp(rng);
  };
}

OpCounts CountOps(const ClientHistories& histories) {
  OpCounts counts;
  ForEachOp(histories, [&counts](const OpRecord& op) {
    if (op.completed == 0) {
      return;  // Still backlogged or in flight.
    }
    if (op.is_read) {
      (op.ok() ? counts.reads_ok : counts.reads_failed)++;
    } else {
      (op.ok() ? counts.acked_writes : counts.failed_writes)++;
    }
  });
  return counts;
}

void ForEachOp(const ClientHistories& histories,
               const std::function<void(const OpRecord&)>& fn) {
  for (const auto& history : histories) {
    for (const OpRecord& op : history->ops()) {
      fn(op);
    }
  }
}

void RecordLatencies(const ClientHistories& histories, LatencyTimeline* reads,
                     LatencyTimeline* all) {
  ForEachOp(histories, [reads, all](const OpRecord& op) {
    if (!op.ok()) {
      return;
    }
    if (op.is_read) {
      reads->Record(op.completed, op.completed - op.issued);
    }
    if (all != nullptr) {
      all->Record(op.completed, op.completed - op.issued);
    }
  });
}

Tick Quantile(std::vector<Tick> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const auto index = static_cast<size_t>(static_cast<double>(values.size()) * q);
  return values[std::min(index, values.size() - 1)];
}

std::vector<std::string> LoadedKeys(uint64_t records) {
  std::vector<std::string> keys;
  keys.reserve(records);
  for (uint64_t i = 0; i < records; i++) {
    keys.push_back(Cluster::MakeKey(i, 30));
  }
  return keys;
}

ReadBackResult VerifyReadBack(Cluster& cluster, TableId table,
                              const std::vector<std::string>& keys,
                              const ClientHistories& histories) {
  const std::string loaded(kValueLength, 'v');  // Cluster::LoadTable's values.
  ReadBackResult result;
  for (size_t i = 0; i < keys.size(); i++) {
    const std::string& key = keys[i];
    const KeyHash hash = HashKey(table, key);
    const auto& writes = histories[hash % histories.size()]->writes();
    const auto it = writes.find(key);
    const KeyState* state = it == writes.end() ? nullptr : &it->second;
    const ServerId owner = cluster.coordinator().OwnerOf(table, hash);
    cluster.client(0).Read(table, key, [&, key, hash, owner, state](Status s,
                                                                    const std::string& v) {
      bool ok = s == Status::kOk;
      if (ok && state != nullptr) {
        ok = v == (state->acked ? state->last_acked : loaded) || state->failed_values.contains(v);
      } else if (ok) {
        ok = v == loaded;
      }
      if (!ok) {
        result.mismatches++;
        result.detail += "key=" + key + " status=" + std::to_string(static_cast<int>(s)) +
                         " got='" + v + "' last_acked='" +
                         (state != nullptr && state->acked ? state->last_acked : "<none>") +
                         "' failed=" +
                         std::to_string(state != nullptr ? state->failed_values.size() : 0) +
                         " hash=" + std::to_string(hash) +
                         " owner=" + std::to_string(owner) + "\n";
      }
    });
    if (i % 64 == 63) {
      cluster.Run();
    }
  }
  cluster.Run();
  return result;
}

}  // namespace rocksteady
