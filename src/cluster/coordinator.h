// The cluster coordinator.
//
// §2: "Each cluster has one quorum-replicated coordinator that manages
// cluster membership and table-partition-to-master mappings." It also holds
// Rocksteady's lineage dependencies (§3.4): while a migration is in flight,
// the source's recovery depends on the tail of the target's recovery log.
// The coordinator owns crash recovery orchestration (delegated to
// RecoveryManager).
//
// The coordinator touches only its own state inside an event. It decides
// from its tablet map, its lifecycle table and a membership view that
// master crash and restart update in root context, and reaches masters by
// RPC, as RAMCloud does: recovery-master assignment (kRecover), inbound
// migration aborts, split mirrors and the drain latch are messages, like
// client tablet-map refresh and dependency register/drop. Setup-time and
// safe-point control-plane calls (CreateTable, SplitTablet, ReassignTablet,
// CreateIndex, Restart's split reconciliation) run in root context, with
// every lane parked, and still install on the masters directly.
#ifndef ROCKSTEADY_SRC_CLUSTER_COORDINATOR_H_
#define ROCKSTEADY_SRC_CLUSTER_COORDINATOR_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/rpc/rpc_system.h"
#include "src/store/tablet.h"

namespace rocksteady {

class MasterServer;
class RecoveryManager;

// Operator-facing server lifecycle (quorum-replicated, like the tablet map —
// it survives coordinator crash/restart, which is what makes a drain resume
// after an outage instead of silently forgetting it).
//
//   kStandby --------> kActive <--------> kDraining ----> kDecommissioned
//    (scale-out pool)   (normal member)    (evacuating)    (empty, delisted)
//
// kActive is the only placement-eligible state: recovery re-homing, planner
// migrations, and control-plane reassignment all refuse to land tablets on
// anything else. A draining server sheds through planner-driven evacuation
// and is decommissioned automatically the moment it owns no map range and no
// lineage dependency names it. ActivateServer() moves standby (scale-out) or
// draining (drain cancel) or decommissioned (re-commission) servers back to
// kActive.
enum class ServerLifecycle : uint8_t {
  kActive = 0,
  kStandby = 1,
  kDraining = 2,
  kDecommissioned = 3,
};

// One registered lineage dependency (§3.4).
struct MigrationDependency {
  ServerId source = 0;
  ServerId target = 0;
  TableId table = 0;
  KeyHash start_hash = 0;
  KeyHash end_hash = 0;
  // Position in the *target's* log where the dependency starts: everything
  // the target logged from here on must reach the source's recovery.
  uint32_t target_log_segment = 0;
  uint32_t target_log_offset = 0;
};

// Indexlet placement for one secondary index.
struct IndexletConfig {
  std::string start_key;
  std::string end_key;  // Empty = to +infinity.
  ServerId owner = 0;
  NodeId owner_node = 0;
};

class Coordinator {
 public:
  Coordinator(Simulator* sim, RpcSystem* rpc, const CostModel* costs);
  ~Coordinator();

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  NodeId node() const { return endpoint_->node(); }
  // The coordinator's lane simulator, bound to its node (Simulator::ForNode).
  Simulator& sim() { return sim_->ForNode(node()); }
  RpcSystem& rpc() { return *rpc_; }

  // --- Server directory. ---
  ServerId RegisterMaster(MasterServer* master);
  MasterServer* master(ServerId id) const;
  NodeId NodeOf(ServerId id) const;
  // Membership view: false from a master's Crash() to its Restart(), both
  // of which run in root context and report here.
  bool up(ServerId id) const { return up_[id - 1]; }
  void SetServerUp(ServerId id, bool up) { up_[id - 1] = up; }
  // Alive servers other than `except` (backup placement, recovery sources).
  // Lifecycle-blind: a draining or decommissioned server still answers
  // backup reads (its frames model disk), so recovery fetch paths keep it.
  std::vector<ServerId> AliveServers(ServerId except = kInvalidServerId) const;
  // Alive AND kActive servers other than `except` — the only legal homes for
  // tablets (recovery re-homing, planner targets, reassignment).
  std::vector<ServerId> PlacementCandidates(ServerId except = kInvalidServerId) const;

  // --- Server lifecycle (drain/decommission protocol). ---
  ServerLifecycle lifecycle(ServerId id) const { return lifecycle_[id - 1]; }
  // Marks `id` kDraining: the master stops accepting tablet assignments (a
  // kSetDraining latch) and the rebalance planner mass-evacuates its ranges.
  // Idempotent (draining or decommissioned already -> kOk). Refused
  // (kInvalidState) when no *other* placement-eligible master exists — the
  // evacuation would have nowhere to land. An empty server decommissions
  // immediately.
  Status BeginDrain(ServerId id);
  // Moves `id` to kActive: admits a standby into placement (scale-out),
  // cancels an in-progress drain, or re-commissions a decommissioned server.
  // Idempotent.
  Status ActivateServer(ServerId id);
  // Parks a freshly registered, empty server in the standby pool (scale-out
  // setup). Refused once it owns any map range.
  Status MarkStandby(ServerId id);
  // Decommissions every draining server that owns no map range and appears
  // in no lineage dependency. Called from the ownership-change paths and the
  // detector sweep; also directly by tests.
  void MaybeCompleteDrains();
  uint64_t drains_started() const { return drains_started_; }
  uint64_t drains_completed() const { return drains_completed_; }

  // --- Tablet map. ---
  // Creates `table` spanning the whole hash space on `owner` (also installs
  // the tablet on the owning master).
  void CreateTable(TableId table, ServerId owner);
  // Metadata-only split at `split_hash` (coordinator map + owning master).
  Status SplitTablet(TableId table, KeyHash split_hash);

  // Narrowest range a checked split may create. Finer slivers are pure
  // planner churn: they are below the telemetry histogram's resolution, so
  // the planner could never target them meaningfully anyway.
  static constexpr KeyHash kMinSplitSpan = KeyHash{1} << 52;

  // Rebalancer-facing split with validation and crash-consistent mirroring:
  //  * no covering range                     -> kTableNotFound
  //  * either half would be < kMinSplitSpan  -> kInvalidState (incl. empty)
  //  * owner crashed/recovering, owner's tablet not kNormal, or a lineage
  //    dependency overlaps the range (migration in flight) -> kRetryLater
  // On success the quorum-replicated map splits immediately; the owning
  // master's mirror follows by kSplitTablet RPC, so a coordinator crash can
  // strand the master unsplit — Restart() runs ReconcileSplits() to converge.
  Status SplitTabletChecked(TableId table, KeyHash split_hash);
  // Re-mirrors every map boundary onto the owning masters (idempotent);
  // called on Restart() so a crash between map update and master mirror
  // always converges to the map.
  void ReconcileSplits();
  uint64_t splits_performed() const { return splits_performed_; }
  uint64_t splits_refused() const { return splits_refused_; }

  // Repoints ownership of an existing tablet range. Map-only: protocol
  // callers (migration commit, recovery) sequence their own master-side
  // tablet installs *before* this call so the cross-layer audit holds.
  Status UpdateOwnership(TableId table, KeyHash start_hash, KeyHash end_hash,
                         ServerId new_owner);
  // Control-plane reassignment of an exact map range (test/bench spreads,
  // operator moves without data): installs an empty kNormal tablet on the
  // new owner first, then repoints the map, then drops the previous owner's
  // mirror — the one ordering under which the cross-layer coverage audit is
  // true at every step. Data, if any, stays behind; callers load afterwards
  // or move records themselves. Only kActive masters are legal targets.
  Status ReassignTablet(TableId table, KeyHash start_hash, KeyHash end_hash,
                        ServerId new_owner);
  std::vector<TabletConfigEntry> GetTableConfig(TableId table) const;
  ServerId OwnerOf(TableId table, KeyHash hash) const;

  struct OwnedTablet {
    TableId table = 0;
    KeyHash start_hash = 0;
    KeyHash end_hash = 0;
    ServerId owner = 0;
  };
  const std::vector<OwnedTablet>& GetAllTablets() const { return tablet_map_; }

  // --- Secondary indexes. ---
  // Declares an index partitioned at the given split keys and installs the
  // indexlets on their owners.
  void CreateIndex(TableId table, uint8_t index_id,
                   const std::vector<IndexletConfig>& indexlets);
  const std::vector<IndexletConfig>* GetIndexConfig(TableId table, uint8_t index_id) const;

  // --- Lineage dependencies (§3.4). ---
  void RegisterDependency(const MigrationDependency& dependency);
  // Returns whether the edge was registered.
  bool DropDependency(ServerId source, ServerId target, TableId table);
  // Drops an edge whose migration committed (the target's DropDependency
  // RPC, or the lease watchdog finding it committed) and reports it through
  // on_migration_committed.
  void CommitDependency(ServerId source, ServerId target, TableId table);
  std::optional<MigrationDependency> FindDependencyBySource(ServerId source) const;
  std::optional<MigrationDependency> FindDependencyByTarget(ServerId target) const;
  const std::vector<MigrationDependency>& dependencies() const { return dependencies_; }

  // --- Crash handling. ---
  // Orchestrates recovery of `crashed` (already halted + off the network):
  // resolves lineage, re-homes tablets, replays backup data. `done` fires
  // when ownership is consistent again.
  void HandleCrash(ServerId crashed, std::function<void()> done);

  // --- Coordinator crash/restart. ---
  // §2: the coordinator is quorum-replicated, so a crash costs availability
  // only — the tablet map, dependencies, and index layout all survive.
  void Crash();
  void Restart();
  bool crashed() const { return crashed_; }

  // --- Failure detection + migration leases. ---
  // Starts a periodic kPing sweep over every master (a timed-out probe of a
  // genuinely crashed server triggers HandleCrash exactly once) plus the
  // migration lease watchdog: a dependency whose target has not heartbeated
  // within migration_lease_ns is re-driven through the lineage paths —
  // crashed endpoint -> full recovery; both alive but wedged -> abort back
  // to the source; already committed -> drop the stale dependency.
  // Opt-in: the sweep keeps a timer alive, so tests that want the event
  // queue to drain call StopFailureDetector() first.
  void StartFailureDetector();
  void StopFailureDetector() { failure_detector_running_ = false; }
  bool failure_detector_running() const { return failure_detector_running_; }

  // Fired after a detector-triggered recovery finishes; the chaos harness
  // uses it to schedule the crashed server's restart *after* re-homing (a
  // restarted-but-unrecovered master must not rejoin as an owner).
  std::function<void(ServerId)> on_recovery_complete;

  uint64_t crashes_detected() const { return crashes_detected_; }
  uint64_t stalled_migrations_aborted() const { return stalled_migrations_aborted_; }
  uint64_t stale_dependencies_dropped() const { return stale_dependencies_dropped_; }
  uint64_t budget_aborts() const { return budget_aborts_; }

  // Fired on the coordinator's node when a migration commits (its lineage
  // dependency is dropped as committed): (source, target, table). The
  // rebalance planner learns of its migrations' completion here.
  std::function<void(ServerId, ServerId, TableId)> on_migration_committed;

  // --- Piggyback payload routing. ---
  // Control RPCs that flow periodically anyway (ping replies, migration
  // lease heartbeats) carry optional PiggybackBlobs; subsystems register a
  // handler per kind and the coordinator routes each received blob to it
  // with the originating server. Unhandled kinds are dropped silently.
  using PiggybackHandler = std::function<void(ServerId, const PiggybackBlob&)>;
  void RegisterPiggybackHandler(PiggybackKind kind, PiggybackHandler handler);
  void ClearPiggybackHandler(PiggybackKind kind);

  // Invariants: for every table, the tablet map is a *partition* of the full
  // hash space — ranges tile [0, 2^64) with no gap or overlap, so every key
  // hash has exactly one owner; owners are registered servers; lineage
  // dependencies are unique per (source, target, table) and name registered,
  // distinct servers; standby and decommissioned servers own no map range
  // and appear in no dependency. In root context with no crash recovery in
  // flight, additionally cross-layer: each alive owner's local tablets tile
  // every map range it owns (split ranges included) — a master missing a
  // range the map assigned it is a routing hole. (Inside an event the
  // coordinator may not read masters, so that part stands down.)
  void AuditInvariants(AuditReport* report) const;

 private:
  using LeaseKey = std::tuple<ServerId, ServerId, TableId>;  // (source, target, table).

  void HandleGetTableConfig(RpcContext context);
  void HandleRegisterDependency(RpcContext context);
  void HandleDropDependency(RpcContext context);
  void HandleMigrationHeartbeat(RpcContext context);
  void HandleAbortMigration(RpcContext context);
  void HandleBeginDrain(RpcContext context);
  void HandleActivateServer(RpcContext context);
  void HandleDrainStatus(RpcContext context);
  // Latches the master's drain flag by kSetDraining RPC (a down master
  // re-syncs from the lifecycle table when it restarts).
  void SendDrainLatch(ServerId id, bool draining);
  // RecoveryManager::AbortMigrationToSource, counted as a recovery in
  // flight; `done(committed)` may be null.
  void AbortToSource(const MigrationDependency& dependency, bool keep_if_committed,
                     std::function<void(bool committed)> done);
  void DetectorSweep();
  void DeclareDead(ServerId id);
  void CheckLeases();
  void RoutePiggyback(ServerId from, const PiggybackBlob& blob);

  Simulator* sim_;
  RpcSystem* rpc_;
  const CostModel* costs_;
  std::unique_ptr<CoreSet> cores_;
  RpcEndpoint* endpoint_;
  std::vector<MasterServer*> masters_;  // Index = ServerId - 1.
  std::vector<bool> up_;               // Membership view, index = ServerId - 1.
  uint64_t drain_latch_epoch_ = 0;     // Orders kSetDraining latches.
  // Quorum-replicated like the tablet map: survives Crash()/Restart(), so a
  // drain in progress resumes after a coordinator outage.
  std::vector<ServerLifecycle> lifecycle_;  // Index = ServerId - 1.
  std::vector<OwnedTablet> tablet_map_;
  std::vector<MigrationDependency> dependencies_;
  // (table, index_id) -> indexlet layout.
  std::vector<std::tuple<TableId, uint8_t, std::vector<IndexletConfig>>> indexes_;
  std::unique_ptr<RecoveryManager> recovery_;
  bool crashed_ = false;
  bool failure_detector_running_ = false;
  std::set<ServerId> recovering_;  // Recovery in flight; don't re-declare.
  std::map<LeaseKey, Tick> leases_;  // Last heartbeat per dependency.
  // One registered handler per kind; at most a handful of kinds ever exist.
  std::vector<std::pair<PiggybackKind, PiggybackHandler>> piggyback_handlers_;
  // Recoveries and aborts-to-source in flight (started, done not yet
  // fired). While nonzero, ownership moves ahead of master-side tablet
  // installs by design, so the cross-layer coverage audit stands down and
  // checked splits are refused.
  int active_recoveries_ = 0;
  uint64_t crashes_detected_ = 0;
  uint64_t stalled_migrations_aborted_ = 0;
  uint64_t stale_dependencies_dropped_ = 0;
  uint64_t budget_aborts_ = 0;  // Target-requested aborts (memory budget).
  uint64_t splits_performed_ = 0;  // Checked splits applied to the map.
  uint64_t splits_refused_ = 0;    // Checked splits rejected by validation.
  uint64_t drains_started_ = 0;    // BeginDrain transitions into kDraining.
  uint64_t drains_completed_ = 0;  // Draining servers decommissioned empty.
};

}  // namespace rocksteady

#endif  // ROCKSTEADY_SRC_CLUSTER_COORDINATOR_H_
