// A RAMCloud storage server: master (data) + backup (replica storage) +
// dispatch/worker cores + NIC, as in Figure 1.
//
// The master registers handlers for the normal-case data path (read, write,
// remove, multiget, index ops) and the backup path. Migration handlers
// (Pull, PriorityPull, MigrateTablet, ...) are installed by the migration
// library (src/migration), which plugs into this class through
// MigrationHooks — keeping the paper's contribution in its own module, just
// as Rocksteady layers onto RAMCloud.
#ifndef ROCKSTEADY_SRC_CLUSTER_MASTER_SERVER_H_
#define ROCKSTEADY_SRC_CLUSTER_MASTER_SERVER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/backup_service.h"
#include "src/cluster/coordinator.h"
#include "src/cluster/replica_manager.h"
#include "src/common/dcheck.h"
#include "src/common/timeseries.h"
#include "src/index/indexlet.h"
#include "src/rpc/rpc_system.h"
#include "src/store/object_manager.h"

namespace rocksteady {

struct MasterConfig {
  // Table 1 / §4.1: "one core solely as a dispatch core ... 12 additional
  // cores as workers".
  int num_workers = 12;
  int hash_table_log2_buckets = 20;
  size_t segment_size = kDefaultSegmentSize;
  int replication_factor = 3;

  // --- Overload protection (admission control / load shedding). ---
  // Per-priority worker-queue bounds (0 = unbounded). Past its bound,
  // low-priority work is rejected with kRetryLater — migration pulls and
  // bulk re-replication back off through the senders' seeded-jitter retry
  // machinery instead of piling up. Client requests are shed only past the
  // (much larger) hard limit; by then the server is hopelessly behind and
  // queueing more would only inflate every queued request's latency.
  size_t migration_queue_bound = 64;
  size_t replication_queue_bound = 256;
  size_t client_queue_hard_limit = 1024;

  // --- Memory budget. ---
  // Bytes of log memory (full segment capacities, *including* uncommitted
  // side-log segments) this master may hold; 0 = unlimited. A migration
  // target pauses pulls at the high watermark, runs emergency cleaning, and
  // resumes below the low watermark; if cleaning cannot get under budget the
  // migration aborts gracefully along the §3.4 lineage paths.
  uint64_t memory_budget_bytes = 0;
  double memory_high_watermark = 0.90;
  double memory_low_watermark = 0.75;
};

class MasterServer {
 public:
  // Installed by the migration library on migration targets; consulted by
  // the read path when a tablet is in kMigrationTarget state.
  class MigrationHooks {
   public:
    virtual ~MigrationHooks() = default;

    // The record for (table, hash) has not arrived yet. The hook schedules
    // it (batched PriorityPull, §3.3) and returns the absolute time at
    // which the target expects to have it (the client's retry hint).
    virtual Tick OnMissingRecord(TableId table, KeyHash hash) = 0;

    // True if the source authoritatively reported the key absent.
    virtual bool IsKnownAbsent(TableId table, KeyHash hash) = 0;

    // True if this hook wants to service the read itself (synchronous
    // PriorityPull mode, §4.4); the hook then owns the reply.
    virtual bool ServiceReadSynchronously(TableId table, KeyHash hash, RpcContext* context) {
      (void)table;
      (void)hash;
      (void)context;
      return false;
    }
  };

  // `lane` places the server's events (cores, NIC, timers) on that event
  // lane.
  MasterServer(Coordinator* coordinator, const CostModel* costs, const MasterConfig& config,
               int lane = 0);

  MasterServer(const MasterServer&) = delete;
  MasterServer& operator=(const MasterServer&) = delete;

  ServerId id() const { return id_; }
  NodeId node() const { return endpoint_->node(); }
  // This server's lane simulator, bound to its node (Simulator::ForNode).
  Simulator& sim() { return sim_->ForNode(node()); }
  // The RNG this server's event-path code must draw from: its private
  // per-node stream (draws in this node's event order are lane-invariant).
  Random& rng() { return *rng_; }
  RpcSystem& rpc() { return coordinator_->rpc(); }
  Coordinator& coordinator() { return *coordinator_; }
  const CostModel& costs() const { return *costs_; }
  const MasterConfig& config() const { return config_; }

  CoreSet& cores() { return *cores_; }
  // The store: touched only by this server's own events or root context
  // (debug builds check it, at every lane count).
  ObjectManager& objects() {
    CheckOwner();
    return objects_;
  }
  ReplicaManager& replicas() { return *replicas_; }
  BackupService& backup() { return backup_; }
  RpcEndpoint& endpoint() { return *endpoint_; }

  void set_migration_hooks(MigrationHooks* hooks) { migration_hooks_ = hooks; }
  MigrationHooks* migration_hooks() const { return migration_hooks_; }

  // --- Layered-subsystem hooks (load telemetry, src/rebalance). ---
  // Per-op access tap, called on the worker path of every successfully
  // served read/write/remove/multiget: (table, key hash, is_write, bytes).
  std::function<void(TableId, KeyHash, bool, size_t)> on_access;
  // Builds the optional payload piggybacked on ping replies and migration
  // lease heartbeats (e.g. the rebalancer's load-telemetry frame). Unset =
  // probes reply with an empty blob, exactly the pre-telemetry wire cost.
  std::function<PiggybackBlob()> piggyback_provider;

  // Called by Crash() before the server halts: a crashed process loses
  // whatever it was running (the migration library aborts its inbound
  // migrations here, so no continuation survives into a restart).
  std::function<void()> on_crash;

  // Opaque per-server state slot for layered subsystems (the migration
  // library parks its per-server managers here).
  void set_extension(std::shared_ptr<void> extension) { extension_ = std::move(extension); }
  const std::shared_ptr<void>& extension() const { return extension_; }

  // --- Indexlets hosted by this server. ---
  Indexlet* AddIndexlet(TableId table, uint8_t index_id, std::string start_key,
                        std::string end_key);
  Indexlet* FindIndexlet(TableId table, uint8_t index_id, std::string_view secondary_key);

  // --- Drain (decommission protocol). ---
  // Latched by the coordinator's kSetDraining RPC when this master enters or
  // leaves kDraining. While draining, the master refuses new inbound tablet
  // migrations (the kMigrateTablet handler checks this) — it only sheds.
  // Mirrors the coordinator's quorum-replicated lifecycle flag; Restart()
  // re-syncs from it, so a master that crashes mid-drain comes back still
  // refusing.
  void SetDraining(bool draining) {
    CheckOwner();
    draining_ = draining;
  }
  bool draining() const { return draining_; }

  // --- Crash simulation. ---
  // Root context only (a safe-point task or setup code): both also update
  // the coordinator's membership view.
  // Halts cores and disconnects the NIC. Recovery is driven separately by
  // Coordinator::HandleCrash.
  void Crash();
  bool crashed() const { return crashed_; }
  // Rejoins after a Crash() as a fresh, empty master: in-memory state is
  // discarded (recovery re-homes it), backup frames survive like disk.
  void Restart();

  // Re-replicates log bytes a replay appended, cut by
  // ReplicaManager::SliceRange: the one path shared by recovery, Rocksteady
  // (lazy and sync) and the baseline migration. Each chunk costs a worker
  // at `priority` its ReplicationSrcCost, then goes to every backup on the
  // bulk or the foreground pipeline. `done` gets the worst status once
  // every chunk is acked, or kOk at once when there are none.
  void ReplicateChunks(std::vector<ReplicaChunk> chunks, Priority priority, bool bulk,
                       std::function<void(Status)> done);

  // --- Counters (experiment bookkeeping). ---
  uint64_t reads_served() const { return reads_served_; }
  uint64_t writes_served() const { return writes_served_; }

  // --- Overload protection. ---
  // Shed/reject counters (bench summaries report these).
  uint64_t client_sheds() const { return client_sheds_; }
  uint64_t replication_rejects() const { return replication_rejects_; }
  uint64_t migration_pull_rejects() const { return migration_pull_rejects_; }
  void CountMigrationPullReject() { migration_pull_rejects_++; }

  // Recent windowed p99.9 client service latency — the tail-latency signal
  // piggybacked on pull replies for adaptive pacing.
  Tick RecentClientP999() {
    return static_cast<Tick>(client_latency_.RecentPercentile(sim().now(), 0.999));
  }
  // Fills the piggybacked source-load header on a pull reply.
  void FillLoadHeader(SourceLoadHeader* load);

  // Log memory held (full segment capacities, incl. uncommitted side-log
  // segments) — what the memory budget is charged against.
  uint64_t memory_in_use() const { return objects_.log().allocated_bytes(); }
  // Runtime-adjustable (an operator resizing a master's allotment); the
  // migration manager re-reads it at every watermark check.
  void set_memory_budget(uint64_t bytes) { config_.memory_budget_bytes = bytes; }

 private:
  void RegisterHandlers();
  void HandleRead(RpcContext context);
  void HandleWrite(RpcContext context);
  void HandleRemove(RpcContext context);
  // MultiGetRequest (by key) or MultiGetHashRequest (by hash).
  template <typename Request>
  void HandleMultiGet(RpcContext context);
  void HandleIndexLookup(RpcContext context);
  void HandleIndexInsert(RpcContext context);
  void HandleBackupWrite(RpcContext context);
  void HandleGetRecoveryData(RpcContext context);
  // Replicates the serialized entry at `ref` of the main log and invokes
  // `done` when durable: the write path.
  void ReplicateEntry(LogRef ref, std::function<void(Status)> done);

  // An event touches only its own node: debug builds abort when another
  // node's event reaches this server's state.
  void CheckOwner() const { ROCKSTEADY_DCHECK(sim_->InRootOrOn(node())); }

  // Load shedding: past the client hard limit, replies kRetryLater (with a
  // backoff hint) instead of queueing. Returns true if the request was shed.
  template <typename Response>
  bool ShedIfOverloaded(RpcContext* context) {
    if (!cores_->QueueFull(Priority::kClient)) {
      return false;
    }
    client_sheds_++;
    auto response = std::make_unique<Response>();
    response->status = Status::kRetryLater;
    context->reply(std::move(response));
    return true;
  }
  // Records one client-visible op completion into the latency window.
  void RecordClientLatency(Tick arrival) {
    client_latency_.Record(sim().now(), sim().now() - arrival);
  }
  // Feeds the telemetry access tap, if installed.
  void RecordAccess(TableId table, KeyHash hash, bool is_write, size_t bytes) {
    if (on_access) {
      on_access(table, hash, is_write, bytes);
    }
  }

  // Shared read-path policy: checks tablet state for (table, hash).
  // Returns kOk to proceed locally, or the status to reply with
  // (kWrongServer / kRetryLater / kObjectNotFound / kTableNotFound);
  // `retry_after` is set for kRetryLater.
  Status CheckReadable(TableId table, KeyHash hash, Tick* retry_after);

  Coordinator* coordinator_;
  const CostModel* costs_;
  MasterConfig config_;
  Simulator* sim_ = nullptr;  // This server's lane simulator.
  Random* rng_ = nullptr;     // This server's RNG stream (see rng()).
  ServerId id_ = kInvalidServerId;
  std::unique_ptr<CoreSet> cores_;
  RpcEndpoint* endpoint_ = nullptr;
  ObjectManager objects_;
  std::unique_ptr<ReplicaManager> replicas_;
  BackupService backup_;
  MigrationHooks* migration_hooks_ = nullptr;
  std::shared_ptr<void> extension_;
  std::vector<std::unique_ptr<Indexlet>> indexlets_;
  bool crashed_ = false;
  bool draining_ = false;
  uint64_t drain_latch_epoch_ = 0;  // Newest kSetDraining latch applied.
  uint64_t reads_served_ = 0;
  uint64_t writes_served_ = 0;
  SlidingLatencyTracker client_latency_;
  uint64_t client_sheds_ = 0;
  uint64_t replication_rejects_ = 0;
  uint64_t migration_pull_rejects_ = 0;
};

}  // namespace rocksteady

#endif  // ROCKSTEADY_SRC_CLUSTER_MASTER_SERVER_H_
