#include "src/cluster/coordinator.h"

#include <algorithm>
#include <cassert>

#include "src/cluster/master_server.h"
#include "src/cluster/recovery.h"
#include "src/common/annotations.h"
#include "src/common/logging.h"

namespace rocksteady {

Coordinator::Coordinator(Simulator* sim, RpcSystem* rpc, const CostModel* costs)
    : sim_(sim), rpc_(rpc), costs_(costs) {
  // The coordinator is off the data path; a small CoreSet keeps its RPC
  // handling timed without modeling a full server.
  cores_ = std::make_unique<CoreSet>(sim_, 2);
  endpoint_ = rpc_->CreateEndpoint(cores_.get());
  endpoint_->Register(Opcode::kGetTableConfig,
                      ROCKSTEADY_IDEMPOTENT("pure read of the tablet map")
                      [this](RpcContext c) { HandleGetTableConfig(std::move(c)); });
  endpoint_->Register(Opcode::kRegisterDependency,
                      ROCKSTEADY_IDEMPOTENT("re-registering an existing (table, source, "
                                            "target) dependency returns the same record")
                      [this](RpcContext c) { HandleRegisterDependency(std::move(c)); });
  endpoint_->Register(Opcode::kDropDependency,
                      ROCKSTEADY_IDEMPOTENT("dropping an already-dropped dependency is a "
                                            "no-op")
                      [this](RpcContext c) { HandleDropDependency(std::move(c)); });
  endpoint_->Register(
      Opcode::kUpdateOwnership,
      ROCKSTEADY_IDEMPOTENT("repoints an exact range to new_owner; re-execution rewrites "
                            "the same owner value")
      [this](RpcContext c) {
        auto& request = c.As<UpdateOwnershipRequest>();
        auto response = std::make_unique<StatusResponse>();
        response->status = UpdateOwnership(request.table, request.start_hash, request.end_hash,
                                           request.new_owner);
        c.reply(std::move(response));
      });
  endpoint_->Register(Opcode::kMigrationHeartbeat,
                      ROCKSTEADY_IDEMPOTENT("lease refresh; repeated refreshes only extend "
                                            "the same lease")
                      [this](RpcContext c) { HandleMigrationHeartbeat(std::move(c)); });
  endpoint_->Register(Opcode::kAbortMigration,
                      ROCKSTEADY_IDEMPOTENT("aborting a finished or already-aborted "
                                            "migration is a no-op")
                      [this](RpcContext c) { HandleAbortMigration(std::move(c)); });
  endpoint_->Register(Opcode::kBeginDrain,
                      ROCKSTEADY_IDEMPOTENT("lifecycle latch: re-draining a draining or "
                                            "decommissioned server is a no-op")
                      [this](RpcContext c) { HandleBeginDrain(std::move(c)); });
  endpoint_->Register(Opcode::kActivateServer,
                      ROCKSTEADY_IDEMPOTENT("lifecycle latch: re-activating an active "
                                            "server is a no-op")
                      [this](RpcContext c) { HandleActivateServer(std::move(c)); });
  endpoint_->Register(Opcode::kDrainStatus,
                      ROCKSTEADY_IDEMPOTENT("pure read of the lifecycle table and tablet map")
                      [this](RpcContext c) { HandleDrainStatus(std::move(c)); });
  recovery_ = std::make_unique<RecoveryManager>(this);
}

Coordinator::~Coordinator() = default;

ServerId Coordinator::RegisterMaster(MasterServer* master) {
  masters_.push_back(master);
  lifecycle_.push_back(ServerLifecycle::kActive);
  return static_cast<ServerId>(masters_.size());
}

MasterServer* Coordinator::master(ServerId id) const {
  assert(id >= 1 && id <= masters_.size());
  return masters_[id - 1];
}

NodeId Coordinator::NodeOf(ServerId id) const { return master(id)->node(); }

std::vector<ServerId> Coordinator::AliveServers(ServerId except) const {
  std::vector<ServerId> alive;
  for (size_t i = 0; i < masters_.size(); i++) {
    const ServerId id = static_cast<ServerId>(i + 1);
    if (id != except && !masters_[i]->crashed()) {
      alive.push_back(id);
    }
  }
  return alive;
}

std::vector<ServerId> Coordinator::PlacementCandidates(ServerId except) const {
  std::vector<ServerId> candidates;
  for (size_t i = 0; i < masters_.size(); i++) {
    const ServerId id = static_cast<ServerId>(i + 1);
    if (id != except && !masters_[i]->crashed() &&
        lifecycle_[i] == ServerLifecycle::kActive) {
      candidates.push_back(id);
    }
  }
  return candidates;
}

bool Coordinator::AnyPlacementEligible(ServerId except) const {
  for (size_t i = 0; i < masters_.size(); i++) {
    const ServerId id = static_cast<ServerId>(i + 1);
    if (id != except && !masters_[i]->crashed() &&
        lifecycle_[i] == ServerLifecycle::kActive) {
      return true;
    }
  }
  return false;
}

Status Coordinator::BeginDrain(ServerId id) {
  if (id < 1 || id > masters_.size()) {
    return Status::kInvalidState;
  }
  ServerLifecycle& state = lifecycle_[id - 1];
  if (state == ServerLifecycle::kDraining || state == ServerLifecycle::kDecommissioned) {
    return Status::kOk;  // Latched already; re-drives are no-ops.
  }
  if (!AnyPlacementEligible(id)) {
    // Nowhere for the evacuation to land — refuse rather than strand the
    // cluster with zero placement-eligible masters.
    return Status::kInvalidState;
  }
  state = ServerLifecycle::kDraining;
  drains_started_++;
  if (!masters_[id - 1]->crashed()) {
    masters_[id - 1]->SetDraining(true);
  }
  LOG_INFO("coordinator: server %u draining at t=%.6f s", id,
           static_cast<double>(sim_->now()) / 1e9);
  // An already-empty server (standby, or never assigned) completes at once.
  MaybeCompleteDrains();
  return Status::kOk;
}

Status Coordinator::ActivateServer(ServerId id) {
  if (id < 1 || id > masters_.size()) {
    return Status::kInvalidState;
  }
  ServerLifecycle& state = lifecycle_[id - 1];
  if (state == ServerLifecycle::kActive) {
    return Status::kOk;
  }
  state = ServerLifecycle::kActive;
  if (!masters_[id - 1]->crashed()) {
    masters_[id - 1]->SetDraining(false);
  }
  LOG_INFO("coordinator: server %u activated at t=%.6f s", id,
           static_cast<double>(sim_->now()) / 1e9);
  return Status::kOk;
}

Status Coordinator::MarkStandby(ServerId id) {
  if (id < 1 || id > masters_.size()) {
    return Status::kInvalidState;
  }
  for (const auto& tablet : tablet_map_) {
    if (tablet.owner == id) {
      return Status::kInvalidState;  // Standby servers own nothing.
    }
  }
  lifecycle_[id - 1] = ServerLifecycle::kStandby;
  return Status::kOk;
}

void Coordinator::MaybeCompleteDrains() {
  for (size_t i = 0; i < lifecycle_.size(); i++) {
    if (lifecycle_[i] != ServerLifecycle::kDraining) {
      continue;
    }
    const ServerId id = static_cast<ServerId>(i + 1);
    bool busy = false;
    for (const auto& tablet : tablet_map_) {
      if (tablet.owner == id) {
        busy = true;
        break;
      }
    }
    for (size_t d = 0; !busy && d < dependencies_.size(); d++) {
      busy = dependencies_[d].source == id || dependencies_[d].target == id;
    }
    if (busy) {
      continue;
    }
    lifecycle_[i] = ServerLifecycle::kDecommissioned;
    drains_completed_++;
    if (!masters_[i]->crashed()) {
      masters_[i]->SetDraining(false);
    }
    LOG_INFO("coordinator: server %u drained empty; decommissioned at t=%.6f s", id,
             static_cast<double>(sim_->now()) / 1e9);
  }
}

void Coordinator::CreateTable(TableId table, ServerId owner) {
  ROCKSTEADY_DCHECK(lifecycle_[owner - 1] == ServerLifecycle::kActive);
  tablet_map_.push_back(OwnedTablet{table, 0, ~0ull, owner});
  master(owner)->objects().tablets().Add(Tablet{table, 0, ~0ull, TabletState::kNormal});
  DebugAudit(*this, "coordinator after CreateTable");
}

Status Coordinator::SplitTablet(TableId table, KeyHash split_hash) {
  for (auto& tablet : tablet_map_) {
    if (tablet.table == table && tablet.start_hash <= split_hash &&
        split_hash <= tablet.end_hash) {
      if (tablet.start_hash == split_hash) {
        // Already split in the map. Still converge the owner's mirror (a
        // checked split's deferred mirror may have been lost to a
        // coordinator crash); TabletManager::Split is idempotent.
        if (!master(tablet.owner)->crashed()) {
          // lint:allow-unchecked: convergence mirror — kTableNotFound here means the
          // owner is mid-recovery and recovery reinstalls exact ranges itself.
          master(tablet.owner)->objects().tablets().Split(table, split_hash);
        }
        return Status::kOk;
      }
      OwnedTablet upper = tablet;
      upper.start_hash = split_hash;
      tablet.end_hash = split_hash - 1;
      tablet_map_.push_back(upper);
      // Mirror the split on the owning master (metadata only — this is the
      // whole point of lazy partitioning, §1).
      const Status status = master(upper.owner)->objects().tablets().Split(table, split_hash);
      DebugAudit(*this, "coordinator after SplitTablet");
      return status;
    }
  }
  return Status::kTableNotFound;
}

Status Coordinator::SplitTabletChecked(TableId table, KeyHash split_hash) {
  for (auto& tablet : tablet_map_) {
    if (!(tablet.table == table && tablet.start_hash <= split_hash &&
          split_hash <= tablet.end_hash)) {
      continue;
    }
    // Width gate: both halves must be at least kMinSplitSpan wide. A split
    // at start_hash would make the lower half empty and is refused too
    // (unlike the unchecked path, which treats it as already-split).
    const Tablet range{table, tablet.start_hash, tablet.end_hash, TabletState::kNormal};
    if (!range.CanSplitAt(split_hash, kMinSplitSpan)) {
      splits_refused_++;
      return Status::kInvalidState;
    }
    const ServerId owner = tablet.owner;
    if (master(owner)->crashed() || recovering_.contains(owner) || active_recoveries_ > 0) {
      splits_refused_++;
      return Status::kRetryLater;
    }
    // An in-flight migration overlapping the range: the source's tablet is
    // frozen and the lineage dependency names exact hashes — resharping the
    // range under it would desynchronize all three. Refuse; the planner
    // retries after the migration settles.
    for (const auto& dependency : dependencies_) {
      if (dependency.table == table && dependency.start_hash <= tablet.end_hash &&
          tablet.start_hash <= dependency.end_hash) {
        splits_refused_++;
        return Status::kRetryLater;
      }
    }
    const Tablet* local = master(owner)->objects().tablets().Find(table, split_hash);
    if (local == nullptr || local->state != TabletState::kNormal) {
      // Owner mid-transition (recovering replay, migration endpoint, ...).
      splits_refused_++;
      return Status::kRetryLater;
    }
    // Commit to the quorum-replicated map first, then mirror to the owner
    // asynchronously (the mirror is an RPC in spirit: a coordinator crash in
    // between loses it, and Restart()'s ReconcileSplits re-drives it).
    OwnedTablet upper = tablet;
    upper.start_hash = split_hash;
    tablet.end_hash = split_hash - 1;
    tablet_map_.push_back(upper);
    splits_performed_++;
    LOG_INFO("coordinator: split table %llu at %llx (owner %u)",
             static_cast<unsigned long long>(table),
             static_cast<unsigned long long>(split_hash), owner);
    DebugAudit(*this, "coordinator after SplitTabletChecked");
    sim_->After(0, node(), [this, table, split_hash, owner] {
      if (crashed_ || master(owner)->crashed()) {
        return;  // ReconcileSplits()/recovery converges the mirror later.
      }
      // lint:allow-unchecked: deferred mirror — a refused split means the owner's
      // tablets changed under us; ReconcileSplits()/recovery converge the mirror.
      master(owner)->objects().tablets().Split(table, split_hash);
      DebugAudit(*this, "coordinator after split mirror");
    });
    return Status::kOk;
  }
  splits_refused_++;
  return Status::kTableNotFound;
}

void Coordinator::ReconcileSplits() {
  for (const auto& entry : tablet_map_) {
    if (master(entry.owner)->crashed() || recovering_.contains(entry.owner)) {
      continue;  // Recovery installs exact-range tablets itself.
    }
    TabletManager& tablets = master(entry.owner)->objects().tablets();
    const Tablet* local = tablets.Find(entry.table, entry.start_hash);
    if (local != nullptr && local->start_hash < entry.start_hash) {
      // lint:allow-unchecked: Find() just proved the range exists and straddles the
      // boundary, so this Split cannot refuse; it is a pure converge step.
      tablets.Split(entry.table, entry.start_hash);
    }
  }
  DebugAudit(*this, "coordinator after ReconcileSplits");
}

Status Coordinator::UpdateOwnership(TableId table, KeyHash start_hash, KeyHash end_hash,
                                    ServerId new_owner) {
  for (auto& tablet : tablet_map_) {
    if (tablet.table == table && tablet.start_hash == start_hash &&
        tablet.end_hash == end_hash) {
      // Legal ownership transitions repoint an existing range to a
      // registered server; they never reshape the partition.
      ROCKSTEADY_DCHECK_GE(new_owner, 1u);
      ROCKSTEADY_DCHECK_LE(new_owner, masters_.size());
      tablet.owner = new_owner;
      // Ownership changes are how a draining server empties out (migration
      // commits, recovery re-homes); check for drain completion before the
      // audit so a just-emptied server is already decommissioned when the
      // lifecycle invariants run.
      MaybeCompleteDrains();
      DebugAudit(*this, "coordinator after UpdateOwnership");
      return Status::kOk;
    }
  }
  return Status::kTableNotFound;
}

Status Coordinator::ReassignTablet(TableId table, KeyHash start_hash, KeyHash end_hash,
                                   ServerId new_owner) {
  if (new_owner < 1 || new_owner > masters_.size() ||
      lifecycle_[new_owner - 1] != ServerLifecycle::kActive || master(new_owner)->crashed()) {
    return Status::kInvalidState;
  }
  for (auto& tablet : tablet_map_) {
    if (!(tablet.table == table && tablet.start_hash == start_hash &&
          tablet.end_hash == end_hash)) {
      continue;
    }
    if (tablet.owner == new_owner) {
      return Status::kOk;
    }
    const ServerId previous = tablet.owner;
    // Install on the new owner first, then repoint the map, then drop the
    // previous owner's mirror — the one ordering under which the cross-layer
    // coverage audit is true at every intermediate step.
    master(new_owner)->objects().tablets().Add(
        Tablet{table, start_hash, end_hash, TabletState::kNormal});
    tablet.owner = new_owner;
    if (previous >= 1 && previous <= masters_.size() && !master(previous)->crashed()) {
      master(previous)->objects().tablets().Remove(table, start_hash, end_hash);
    }
    MaybeCompleteDrains();
    DebugAudit(*this, "coordinator after ReassignTablet");
    return Status::kOk;
  }
  return Status::kTableNotFound;
}

std::vector<TabletConfigEntry> Coordinator::GetTableConfig(TableId table) const {
  std::vector<TabletConfigEntry> entries;
  for (const auto& tablet : tablet_map_) {
    if (tablet.table == table) {
      entries.push_back(TabletConfigEntry{tablet.table, tablet.start_hash, tablet.end_hash,
                                          tablet.owner, NodeOf(tablet.owner)});
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.start_hash < b.start_hash; });
  return entries;
}

ServerId Coordinator::OwnerOf(TableId table, KeyHash hash) const {
  for (const auto& tablet : tablet_map_) {
    if (tablet.table == table && tablet.start_hash <= hash && hash <= tablet.end_hash) {
      return tablet.owner;
    }
  }
  return kInvalidServerId;
}

void Coordinator::CreateIndex(TableId table, uint8_t index_id,
                              const std::vector<IndexletConfig>& indexlets) {
  std::vector<IndexletConfig> resolved = indexlets;
  for (auto& indexlet : resolved) {
    indexlet.owner_node = NodeOf(indexlet.owner);
    master(indexlet.owner)->AddIndexlet(table, index_id, indexlet.start_key, indexlet.end_key);
  }
  indexes_.emplace_back(table, index_id, std::move(resolved));
}

const std::vector<IndexletConfig>* Coordinator::GetIndexConfig(TableId table,
                                                               uint8_t index_id) const {
  for (const auto& [t, id, config] : indexes_) {
    if (t == table && id == index_id) {
      return &config;
    }
  }
  return nullptr;
}

void Coordinator::RegisterDependency(const MigrationDependency& dependency) {
  const LeaseKey key{dependency.source, dependency.target, dependency.table};
  leases_[key] = sim_->now();
  for (auto& existing : dependencies_) {
    if (existing.source == dependency.source && existing.target == dependency.target &&
        existing.table == dependency.table) {
      // A re-driven registration (the target retried a timed-out RPC whose
      // response was lost): refresh in place — a duplicate row would break
      // the uniqueness invariant.
      existing = dependency;
      return;
    }
  }
  dependencies_.push_back(dependency);
  LOG_INFO("coordinator: dependency registered source=%u target=%u table=%llu seg=%u off=%u",
           dependency.source, dependency.target,
           static_cast<unsigned long long>(dependency.table), dependency.target_log_segment,
           dependency.target_log_offset);
  DebugAudit(*this, "coordinator after RegisterDependency");
}

void Coordinator::DropDependency(ServerId source, ServerId target, TableId table) {
  leases_.erase(LeaseKey{source, target, table});
  std::erase_if(dependencies_, [&](const MigrationDependency& d) {
    return d.source == source && d.target == target && d.table == table;
  });
  // The dependency edge may have been the last thing pinning a draining
  // server (its final outbound migration just committed or aborted).
  MaybeCompleteDrains();
}

std::optional<MigrationDependency> Coordinator::FindDependencyBySource(ServerId source) const {
  for (const auto& dependency : dependencies_) {
    if (dependency.source == source) {
      return dependency;
    }
  }
  return std::nullopt;
}

std::optional<MigrationDependency> Coordinator::FindDependencyByTarget(ServerId target) const {
  for (const auto& dependency : dependencies_) {
    if (dependency.target == target) {
      return dependency;
    }
  }
  return std::nullopt;
}

void Coordinator::AuditInvariants(AuditReport* report) const {
  // Group the map by table, then check each table's ranges tile the full
  // hash space. Sorting a copy keeps the audit read-only.
  std::vector<OwnedTablet> sorted = tablet_map_;
  std::sort(sorted.begin(), sorted.end(), [](const OwnedTablet& a, const OwnedTablet& b) {
    return a.table != b.table ? a.table < b.table : a.start_hash < b.start_hash;
  });
  for (size_t i = 0; i < sorted.size(); i++) {
    const OwnedTablet& tablet = sorted[i];
    if (tablet.owner < 1 || tablet.owner > masters_.size()) {
      report->Fail("coordinator: table %llu range [%llx, %llx] owned by unknown server %u",
                   static_cast<unsigned long long>(tablet.table),
                   static_cast<unsigned long long>(tablet.start_hash),
                   static_cast<unsigned long long>(tablet.end_hash), tablet.owner);
    }
    const bool first_of_table = i == 0 || sorted[i - 1].table != tablet.table;
    if (first_of_table) {
      if (tablet.start_hash != 0) {
        report->Fail("coordinator: table %llu does not start at hash 0 (starts at %llx)",
                     static_cast<unsigned long long>(tablet.table),
                     static_cast<unsigned long long>(tablet.start_hash));
      }
    } else if (tablet.start_hash != sorted[i - 1].end_hash + 1) {
      report->Fail(
          "coordinator: table %llu has a gap or overlap at %llx (previous range ends at %llx)",
          static_cast<unsigned long long>(tablet.table),
          static_cast<unsigned long long>(tablet.start_hash),
          static_cast<unsigned long long>(sorted[i - 1].end_hash));
    }
    const bool last_of_table = i + 1 == sorted.size() || sorted[i + 1].table != tablet.table;
    if (last_of_table && tablet.end_hash != ~0ull) {
      report->Fail("coordinator: table %llu does not cover the top of the hash space (ends %llx)",
                   static_cast<unsigned long long>(tablet.table),
                   static_cast<unsigned long long>(tablet.end_hash));
    }
  }
  // Cross-layer: every alive owner's local tablets must *tile* each map
  // range it owns — after splits, several local tablets may cover one map
  // range (or one local tablet several map ranges), but there must be no
  // hole, or reads routed by the map fall into kWrongServer loops. Recovery
  // legitimately repoints ownership before the recovery master installs its
  // kRecovering tablets, so the check stands down while one is in flight.
  if (active_recoveries_ == 0 && recovering_.empty()) {
    for (const auto& entry : tablet_map_) {
      if (entry.owner < 1 || entry.owner > masters_.size() ||
          master(entry.owner)->crashed()) {
        continue;
      }
      // A range under an in-flight migration is in transition (e.g. a target
      // that locally aborted while the map still names it); the lease
      // watchdog owns its fate, so coverage is only enforced once the
      // dependency clears.
      bool in_transition = false;
      for (const auto& d : dependencies_) {
        if (d.table == entry.table && d.start_hash <= entry.end_hash &&
            entry.start_hash <= d.end_hash) {
          in_transition = true;
          break;
        }
      }
      if (in_transition) {
        continue;
      }
      const TabletManager& tablets = master(entry.owner)->objects().tablets();
      KeyHash cursor = entry.start_hash;
      while (true) {
        const Tablet* local = tablets.Find(entry.table, cursor);
        if (local == nullptr) {
          report->Fail(
              "coordinator: owner %u of table %llu range [%llx, %llx] has no local tablet "
              "covering %llx",
              entry.owner, static_cast<unsigned long long>(entry.table),
              static_cast<unsigned long long>(entry.start_hash),
              static_cast<unsigned long long>(entry.end_hash),
              static_cast<unsigned long long>(cursor));
          break;
        }
        if (local->end_hash >= entry.end_hash) {
          break;  // Range fully covered.
        }
        cursor = local->end_hash + 1;
      }
    }
  }
  for (size_t i = 0; i < dependencies_.size(); i++) {
    const MigrationDependency& d = dependencies_[i];
    if (d.source == d.target) {
      report->Fail("coordinator: dependency of server %u on itself", d.source);
    }
    for (ServerId id : {d.source, d.target}) {
      if (id < 1 || id > masters_.size()) {
        report->Fail("coordinator: dependency names unknown server %u", id);
      }
    }
    for (size_t j = i + 1; j < dependencies_.size(); j++) {
      const MigrationDependency& other = dependencies_[j];
      if (d.source == other.source && d.target == other.target && d.table == other.table) {
        report->Fail("coordinator: duplicate dependency source=%u target=%u table=%llu",
                     d.source, d.target, static_cast<unsigned long long>(d.table));
      }
    }
  }
  // Lifecycle: a standby server has never been assigned anything, and a
  // decommissioned server was verifiably empty when it was delisted — if
  // either owns a map range or appears in a dependency, the drain protocol
  // (or a caller bypassing it) broke its contract.
  for (size_t i = 0; i < lifecycle_.size(); i++) {
    if (lifecycle_[i] == ServerLifecycle::kActive ||
        lifecycle_[i] == ServerLifecycle::kDraining) {
      continue;
    }
    const ServerId id = static_cast<ServerId>(i + 1);
    const char* state =
        lifecycle_[i] == ServerLifecycle::kStandby ? "standby" : "decommissioned";
    for (const auto& tablet : tablet_map_) {
      if (tablet.owner == id) {
        report->Fail("coordinator: %s server %u owns table %llu range [%llx, %llx]", state, id,
                     static_cast<unsigned long long>(tablet.table),
                     static_cast<unsigned long long>(tablet.start_hash),
                     static_cast<unsigned long long>(tablet.end_hash));
      }
    }
    for (const auto& d : dependencies_) {
      if (d.source == id || d.target == id) {
        report->Fail("coordinator: %s server %u appears in dependency source=%u target=%u",
                     state, id, d.source, d.target);
      }
    }
  }
}

void Coordinator::HandleCrash(ServerId crashed, std::function<void()> done) {
  // Track the in-flight window: recovery legitimately repoints ownership
  // before the recovery master installs its kRecovering tablets, so the
  // cross-layer coverage audit stands down until `done`.
  active_recoveries_++;
  recovery_->RecoverServer(crashed, [this, done = std::move(done)] {
    active_recoveries_--;
    if (done) {
      done();
    }
  });
}

void Coordinator::RegisterPiggybackHandler(PiggybackKind kind, PiggybackHandler handler) {
  for (auto& [registered_kind, registered] : piggyback_handlers_) {
    if (registered_kind == kind) {
      registered = std::move(handler);
      return;
    }
  }
  piggyback_handlers_.emplace_back(kind, std::move(handler));
}

void Coordinator::ClearPiggybackHandler(PiggybackKind kind) {
  std::erase_if(piggyback_handlers_, [kind](const auto& entry) { return entry.first == kind; });
}

void Coordinator::RoutePiggyback(ServerId from, const PiggybackBlob& blob) {
  if (blob.empty() || crashed_) {
    return;
  }
  for (const auto& [kind, handler] : piggyback_handlers_) {
    if (kind == blob.kind && handler) {
      handler(from, blob);
      return;
    }
  }
}

void Coordinator::Crash() {
  if (crashed_) {
    return;
  }
  crashed_ = true;
  cores_->Halt();
  rpc_->net()->SetNodeDown(node(), true);
  LOG_INFO("coordinator crashed at t=%.6f s", static_cast<double>(sim_->now()) / 1e9);
}

void Coordinator::Restart() {
  if (!crashed_) {
    return;
  }
  crashed_ = false;
  cores_->Restart();
  rpc_->net()->SetNodeDown(node(), false);
  // The quorum-replicated metadata (tablet map, dependencies, indexes)
  // survives the outage. Leases restart fresh: the outage ate the
  // heartbeats, and expiring every in-flight migration for it would abort
  // healthy work.
  for (auto& [key, last_heartbeat] : leases_) {
    last_heartbeat = sim_->now();
  }
  // A crash between a checked split's map update and its deferred master
  // mirror leaves the owner coarser than the map; re-drive every boundary
  // (idempotent) so routing and the map agree again.
  ReconcileSplits();
  // Drains persist in the quorum-replicated lifecycle table across the
  // outage; a drain that emptied while the coordinator was down (its last
  // migration committed against the surviving metadata) completes now, and
  // in-progress ones resume via the planner, which re-reads lifecycle()
  // every round.
  MaybeCompleteDrains();
  LOG_INFO("coordinator restarted at t=%.6f s", static_cast<double>(sim_->now()) / 1e9);
}

void Coordinator::StartFailureDetector() {
  if (failure_detector_running_) {
    return;
  }
  failure_detector_running_ = true;
  DetectorSweep();
}

void Coordinator::DetectorSweep() {
  if (!failure_detector_running_) {
    return;
  }
  // The sweep timer lives on the simulator, not the coordinator's cores, so
  // it survives a coordinator crash and resumes probing after Restart().
  sim_->After(costs_->ping_interval_ns, node(), [this] { DetectorSweep(); });
  if (crashed_) {
    return;
  }
  // Drains waiting on something other than an ownership change (e.g. a
  // crashed-then-recovered server whose re-homing emptied it while the
  // completion check stood aside) converge on the sweep cadence.
  MaybeCompleteDrains();
  for (size_t i = 0; i < masters_.size(); i++) {
    const ServerId id = static_cast<ServerId>(i + 1);
    if (recovering_.contains(id)) {
      continue;
    }
    if (lifecycle_[i] == ServerLifecycle::kDecommissioned) {
      continue;  // Delisted: owns nothing, so a crash needs no recovery.
    }
    rpc_->Call(
        node(), NodeOf(id), std::make_unique<PingRequest>(),
        [this, id](Status status, std::unique_ptr<RpcResponse> response) {
          if (status != Status::kOk) {
            DeclareDead(id);
            return;
          }
          // Alive: deliver whatever the server piggybacked on the probe
          // reply (load telemetry) to the subsystem registered for it.
          if (response != nullptr) {
            RoutePiggyback(id, static_cast<const PingResponse&>(*response).piggyback);
          }
        },
        costs_->ping_timeout_ns);
  }
  CheckLeases();
}

void Coordinator::DeclareDead(ServerId id) {
  if (crashed_ || recovering_.contains(id)) {
    return;
  }
  MasterServer* server = master(id);
  if (!server->crashed()) {
    // The probe died to loss, not to a crash (or the server already came
    // back). A real detector needs several misses or a quorum; the sim can
    // simply consult ground truth and let the next sweep re-check.
    return;
  }
  crashes_detected_++;
  recovering_.insert(id);
  LOG_INFO("coordinator: detected crash of server %u at t=%.6f s", id,
           static_cast<double>(sim_->now()) / 1e9);
  HandleCrash(id, [this, id] {
    recovering_.erase(id);
    if (on_recovery_complete) {
      on_recovery_complete(id);
    }
  });
}

void Coordinator::CheckLeases() {
  const Tick now = sim_->now();
  // Work on a copy: every expiry path below mutates dependencies_/leases_.
  std::vector<MigrationDependency> expired;
  for (const auto& dependency : dependencies_) {
    if (recovering_.contains(dependency.source) || recovering_.contains(dependency.target)) {
      continue;  // Recovery already owns this dependency's fate.
    }
    const auto it = leases_.find(LeaseKey{dependency.source, dependency.target, dependency.table});
    const Tick last = it != leases_.end() ? it->second : Tick{0};
    if (now - last > costs_->migration_lease_ns) {
      expired.push_back(dependency);
    }
  }
  for (const auto& dependency : expired) {
    // A crashed endpoint outranks "stalled": route through full lineage
    // recovery rather than a plain abort.
    if (master(dependency.target)->crashed()) {
      DeclareDead(dependency.target);
      continue;
    }
    if (master(dependency.source)->crashed()) {
      DeclareDead(dependency.source);
      continue;
    }
    // Both ends alive. If the target already owns the range and serves it
    // normally, the migration committed but the DropDependency RPC never
    // landed — the dependency row is stale metadata, not a wedge.
    MasterServer* target = master(dependency.target);
    const Tablet* tablet = target->objects().tablets().Find(dependency.table,
                                                            dependency.start_hash);
    const bool committed = tablet != nullptr && tablet->state == TabletState::kNormal &&
                           OwnerOf(dependency.table, dependency.start_hash) == dependency.target;
    if (committed) {
      stale_dependencies_dropped_++;
      LOG_INFO("coordinator: dropping stale dependency source=%u target=%u table=%llu",
               dependency.source, dependency.target,
               static_cast<unsigned long long>(dependency.table));
      DropDependency(dependency.source, dependency.target, dependency.table);
      continue;
    }
    // Genuinely wedged mid-flight with no heartbeats: abort it back to the
    // source through the §3.4 lineage path so the range serves again.
    stalled_migrations_aborted_++;
    LOG_INFO("coordinator: aborting stalled migration source=%u target=%u table=%llu",
             dependency.source, dependency.target,
             static_cast<unsigned long long>(dependency.table));
    recovery_->AbortMigrationToSource(dependency, nullptr);
  }
}

void Coordinator::HandleGetTableConfig(RpcContext context) {
  auto& request = context.As<GetTableConfigRequest>();
  auto response = std::make_unique<GetTableConfigResponse>();
  response->tablets = GetTableConfig(request.table);
  if (response->tablets.empty()) {
    response->status = Status::kTableNotFound;
  }
  context.reply(std::move(response));
}

void Coordinator::HandleRegisterDependency(RpcContext context) {
  auto& request = context.As<RegisterDependencyRequest>();
  RegisterDependency(MigrationDependency{request.source, request.target, request.table,
                                         request.start_hash, request.end_hash,
                                         request.target_log_segment, request.target_log_offset});
  context.reply(std::make_unique<StatusResponse>());
}

void Coordinator::HandleDropDependency(RpcContext context) {
  auto& request = context.As<DropDependencyRequest>();
  DropDependency(request.source, request.target, request.table);
  context.reply(std::make_unique<StatusResponse>());
}

void Coordinator::HandleAbortMigration(RpcContext context) {
  // A migration target asks to abort its own in-flight migration (e.g. the
  // tablet cannot fit its memory budget). Drive the same §3.4 lineage abort
  // as the lease watchdog: ownership returns to the source and the target's
  // log tail is replayed there, so no acked write is lost. Idempotent: once
  // the dependency row is gone (already aborted, or never registered) the
  // request is a no-op acked kOk — a re-driven duplicate must not fail.
  auto& request = context.As<AbortMigrationRequest>();
  const auto match = [&](const MigrationDependency& d) {
    return d.source == request.source && d.target == request.target && d.table == request.table;
  };
  const auto it = std::find_if(dependencies_.begin(), dependencies_.end(), match);
  if (it == dependencies_.end() || recovering_.contains(request.source) ||
      recovering_.contains(request.target)) {
    // Gone, or crash recovery already owns this dependency's fate.
    context.reply(std::make_unique<StatusResponse>());
    return;
  }
  const MigrationDependency dependency = *it;
  budget_aborts_++;
  LOG_INFO("coordinator: abort requested by target for source=%u target=%u table=%llu",
           dependency.source, dependency.target,
           static_cast<unsigned long long>(dependency.table));
  auto shared = std::make_shared<RpcContext>(std::move(context));
  recovery_->AbortMigrationToSource(
      dependency, [shared] { shared->reply(std::make_unique<StatusResponse>()); });
}

void Coordinator::HandleMigrationHeartbeat(RpcContext context) {
  auto& request = context.As<MigrationHeartbeatRequest>();
  leases_[LeaseKey{request.source, request.target, request.table}] = sim_->now();
  RoutePiggyback(request.target, request.piggyback);
  context.reply(std::make_unique<StatusResponse>());
}

void Coordinator::HandleBeginDrain(RpcContext context) {
  auto& request = context.As<BeginDrainRequest>();
  auto response = std::make_unique<StatusResponse>();
  response->status = BeginDrain(request.server);
  context.reply(std::move(response));
}

void Coordinator::HandleActivateServer(RpcContext context) {
  auto& request = context.As<ActivateServerRequest>();
  auto response = std::make_unique<StatusResponse>();
  response->status = ActivateServer(request.server);
  context.reply(std::move(response));
}

void Coordinator::HandleDrainStatus(RpcContext context) {
  auto& request = context.As<DrainStatusRequest>();
  auto response = std::make_unique<DrainStatusResponse>();
  if (request.server < 1 || request.server > masters_.size()) {
    response->status = Status::kInvalidState;
  } else {
    response->lifecycle = static_cast<uint8_t>(lifecycle_[request.server - 1]);
    for (const auto& tablet : tablet_map_) {
      response->tablets_remaining += tablet.owner == request.server ? 1 : 0;
    }
    for (const auto& d : dependencies_) {
      response->dependencies_remaining +=
          d.source == request.server || d.target == request.server ? 1 : 0;
    }
  }
  context.reply(std::move(response));
}

}  // namespace rocksteady
