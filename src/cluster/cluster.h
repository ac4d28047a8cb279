// Cluster: wires a full simulated RAMCloud deployment in one Simulator —
// coordinator, N storage servers (master + backup + cores + NIC), and M
// client machines — mirroring the paper's CloudLab testbed (Table 1).
//
// Control-plane setup (table creation, bulk loading) happens outside
// simulated time, like a cluster that was loaded before the experiment
// began; bulk-loaded data is seeded to backups so recovery works.
#ifndef ROCKSTEADY_SRC_CLUSTER_CLUSTER_H_
#define ROCKSTEADY_SRC_CLUSTER_CLUSTER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/client.h"
#include "src/cluster/coordinator.h"
#include "src/cluster/master_server.h"
#include "src/sim/lane_set.h"

namespace rocksteady {

struct ClusterConfig {
  int num_masters = 4;
  int num_clients = 2;
  MasterConfig master;
  CostModel costs;
  uint64_t seed = 42;
  // Sharded execution: > 0 runs the cluster on that many event lanes
  // (servers/clients round-robined across them) with a deterministic merge;
  // 0 keeps the legacy single event queue, byte-identical to prior traces.
  // Lane-mode traces form their own hash domain: per-node RNG streams
  // replace the shared simulator stream, so lane hashes differ from legacy
  // hashes but are identical across lane counts and threading.
  int lanes = 0;
  // With lanes > 1: execute lanes on real worker threads. Trace hashes are
  // identical with threads on or off.
  bool lane_threads = false;
};

class Cluster {
 public:
  explicit Cluster(const ClusterConfig& config);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // The root simulator: in sharded mode the coordinator's (lane 0, bound to
  // the coordinator node), the single shared queue otherwise. Lane-mode
  // code that needs *a* clock may use it; scheduling cross-cutting control
  // actions must go through AtSafePoint instead.
  Simulator& sim() { return lanes_ != nullptr ? coordinator_->sim() : sim_; }
  Network& net() { return net_; }
  RpcSystem& rpc() { return rpc_; }
  Coordinator& coordinator() { return *coordinator_; }
  const CostModel& costs() const { return config_.costs; }
  const ClusterConfig& config() const { return config_; }

  // --- Mode-independent execution (prefer these over sim().Run*). ---
  LaneSet* lanes() { return lanes_.get(); }
  size_t Run();
  size_t RunUntil(Tick t);
  Tick now() const { return lanes_ != nullptr ? lanes_->now() : sim_.now(); }
  uint64_t trace_hash() const {
    return lanes_ != nullptr ? lanes_->trace_hash() : sim_.trace_hash();
  }
  size_t events_processed() const {
    return lanes_ != nullptr ? lanes_->events_processed() : sim_.events_processed();
  }
  // Runs `fn` once everything before `t` has executed and nothing at/after
  // `t` has, with all lanes parked — the lane-safe home for cross-cutting
  // control actions (migration kickoff, crash injection, operator actions).
  // Legacy mode approximates with a plain event at `t`.
  void AtSafePoint(Tick t, std::function<void()> fn);

  MasterServer& master(size_t i) { return *masters_.at(i); }
  RamCloudClient& client(size_t i) { return *clients_.at(i); }
  size_t num_masters() const { return masters_.size(); }
  size_t num_clients() const { return clients_.size(); }

  // --- Setup helpers (zero simulated time). ---
  void CreateTable(TableId table, size_t master_index);

  // Loads `num_records` objects keyed MakeKey(i, key_length) with
  // `value_length`-byte values into whichever masters own them, then seeds
  // the backups with the resulting segments (as if the loads had been
  // durable writes).
  void LoadTable(TableId table, uint64_t num_records, size_t key_length, size_t value_length);

  // Copies every main-log segment of master `i` to its backups (used after
  // direct bulk loads).
  void SeedReplicas(size_t master_index);

  // Deterministic fixed-length keys ("user" + zero-padded id).
  static std::string MakeKey(uint64_t id, size_t key_length);
  // In-place variant for hot paths: formats into `out`, reusing its
  // capacity, so per-op key generation allocates nothing at steady state.
  static void MakeKeyInto(uint64_t id, size_t key_length, std::string* out);

 private:
  // Root-context simulator access during construction (legacy: the shared
  // queue; lane mode: lane 0). Must not be used before lanes_ is set.
  Simulator* RootSim() { return lanes_ != nullptr ? &lanes_->lane_sim(0) : &sim_; }

  ClusterConfig config_;
  std::unique_ptr<LaneSet> lanes_;  // Null in legacy mode. Before sim_/net_/rpc_: they wire to it.
  Simulator sim_;                   // Legacy shared queue (idle in lane mode).
  Network net_;
  RpcSystem rpc_;
  std::unique_ptr<Coordinator> coordinator_;
  std::vector<std::unique_ptr<MasterServer>> masters_;
  std::vector<std::unique_ptr<RamCloudClient>> clients_;
};

}  // namespace rocksteady

#endif  // ROCKSTEADY_SRC_CLUSTER_CLUSTER_H_
