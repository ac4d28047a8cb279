#include "src/cluster/cluster.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdio>
#include <cstring>

#include "src/common/dcheck.h"

namespace rocksteady {

namespace {

std::unique_ptr<LaneSet> MakeLanes(const ClusterConfig& config) {
  ROCKSTEADY_CHECK(config.lanes >= 1);
  LaneSet::Config lane_config;
  lane_config.lanes = config.lanes;
  lane_config.threads = config.lane_threads;
  // Conservative safe horizon: the minimum cross-lane delivery latency.
  // Every Network::Send charges at least net_per_message_ns of
  // serialization plus propagation, so no in-window event can make another
  // lane's event land inside the window.
  lane_config.lookahead = config.costs.net_per_message_ns + config.costs.net_propagation_ns;
  lane_config.seed = config.seed;
  return std::make_unique<LaneSet>(lane_config);
}

}  // namespace

Cluster::Cluster(const ClusterConfig& config)
    : config_(config), lanes_(MakeLanes(config)), net_(lanes_.get(), &config_.costs),
      rpc_(lanes_.get(), &net_, &config_.costs) {
  const int lanes = lanes_->lanes();
  // The coordinator lives on lane 0; servers and clients round-robin across
  // lanes so the paper-shape cluster (24 servers) spreads evenly.
  coordinator_ = std::make_unique<Coordinator>(&lanes_->lane_sim(0), &rpc_, &config_.costs);
  for (int i = 0; i < config_.num_masters; i++) {
    masters_.push_back(std::make_unique<MasterServer>(coordinator_.get(), &config_.costs,
                                                      config_.master, i % lanes));
  }
  // Backup placement: master i replicates to the next R servers (mod N),
  // never itself. With fewer than R+1 servers, replication degrades to the
  // servers available (single-master unit tests run unreplicated).
  for (int i = 0; i < config_.num_masters; i++) {
    std::vector<NodeId> backups;
    for (int r = 1; r <= config_.master.replication_factor && r < config_.num_masters; r++) {
      backups.push_back(masters_[(i + r) % config_.num_masters]->node());
    }
    masters_[i]->replicas().SetBackups(std::move(backups));
  }
  for (int i = 0; i < config_.num_clients; i++) {
    clients_.push_back(
        std::make_unique<RamCloudClient>(coordinator_.get(), &config_.costs, i % lanes));
  }
}

void Cluster::CreateTable(TableId table, size_t master_index) {
  coordinator_->CreateTable(table, masters_.at(master_index)->id());
}

std::string Cluster::MakeKey(uint64_t id, size_t key_length) {
  std::string key;
  MakeKeyInto(id, key_length, &key);
  return key;
}

void Cluster::MakeKeyInto(uint64_t id, size_t key_length, std::string* out) {
  // Byte-for-byte the snprintf("user%0*llu") this hand-rolled formatter
  // replaced: "user", the id zero-padded to (key_length - 4) digits (wider
  // if the id needs it), then '0'-filled / truncated to key_length. The
  // printf machinery was a measurable per-op cost in the workload path.
  const size_t min_digits = key_length > 4 ? key_length - 4 : 1;
  char digits[20];
  size_t n = 0;
  uint64_t v = id;
  do {
    digits[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  const size_t width = std::max(min_digits, n);
  out->resize(4 + width);
  char* p = out->data();
  std::memcpy(p, "user", 4);
  std::memset(p + 4, '0', width - n);
  for (size_t i = 0; i < n; i++) {
    p[4 + width - n + i] = digits[n - 1 - i];
  }
  out->resize(key_length, '0');
}

void Cluster::LoadTable(TableId table, uint64_t num_records, size_t key_length,
                        size_t value_length) {
  // Each write probes a random bucket of a hash table that may be larger
  // than the cache. Hashing kAhead records ahead and prefetching that
  // bucket overlaps the misses: 8 covers DRAM latency at one write's cost
  // (key hash, log append, two probes of a now-cached bucket).
  constexpr uint64_t kAhead = 8;
  struct Staged {
    std::string key;
    KeyHash hash = 0;
    ObjectManager* objects = nullptr;
  };
  std::array<Staged, kAhead> staged;
  const auto stage = [&](uint64_t i) {
    Staged& next = staged[i % kAhead];
    MakeKeyInto(i, key_length, &next.key);
    next.hash = HashKey(table, next.key);
    const ServerId owner = coordinator_->OwnerOf(table, next.hash);
    assert(owner != kInvalidServerId);
    next.objects = &coordinator_->master(owner)->objects();
    next.objects->hash_table().PrefetchBucket(next.hash);
  };
  const std::string value(value_length, 'v');
  for (uint64_t i = 0; i < std::min(kAhead, num_records); i++) {
    stage(i);
  }
  for (uint64_t i = 0; i < num_records; i++) {
    Staged& record = staged[i % kAhead];
    record.objects->Write(table, record.key, record.hash, value);
    if (i + kAhead < num_records) {
      stage(i + kAhead);
    }
  }
  for (size_t i = 0; i < masters_.size(); i++) {
    SeedReplicas(i);
  }
}

void Cluster::AuditInvariants(AuditReport* report) const {
  coordinator_->AuditInvariants(report);
  for (const auto& master : masters_) {
    if (!master->crashed()) {
      master->objects().AuditInvariants(report);
    }
  }
}

void Cluster::SeedReplicas(size_t master_index) {
  MasterServer& owner = *masters_.at(master_index);
  for (const NodeId backup_node : owner.replicas().backups()) {
    // Find the backup server by node id.
    for (const auto& server : masters_) {
      if (server->node() == backup_node) {
        for (const auto& segment : owner.objects().log().segments()) {
          server->backup().Write(owner.id(), segment->id(), 0,
                                 segment->Slice(0, segment->used()), segment->sealed());
        }
        break;
      }
    }
  }
}

}  // namespace rocksteady
