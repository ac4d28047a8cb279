// Distributed crash recovery, including Rocksteady's lineage rule (§3.4).
//
// Normal case: a crashed master's tablets are re-homed round-robin across
// alive servers; each recovery master fetches the crashed server's replicated
// segments from the backups and replays the entries for the ranges it now
// owns (version rule makes replay order-insensitive).
//
// Lineage cases, per §3.4 ("If either the source or the target crashes
// during migration, Rocksteady transfers ownership of the data back to the
// source"):
//  * Target crashed: the migrating tablet returns to the source, which
//    already holds every record (its copy was immutable); the source
//    additionally replays the *tail* of the target's recovery log — from the
//    dependency's (segment, offset) — to pick up writes the target serviced
//    after ownership transfer. Records sitting in the target's uncommitted
//    side logs were never replicated and are NOT needed: the source's copy
//    is authoritative for them. (The crashed target's manager died with it:
//    MasterServer::Crash aborts it.)
//  * Source crashed: the target aborts the inbound migration (dropping its
//    partial side-log state) and hands back its log tail; the tablet is
//    recovered from the source's backups onto a recovery master, which also
//    replays that tail.
//
// Everything here is a message, as in RAMCloud: the coordinator decides
// from its own tablet map, dependencies and membership view, then sends
// kAbortInboundMigration to a live target and kRecover to each recovery
// master. The recovery master's half (RunRecovery) runs on its own node.
#ifndef ROCKSTEADY_SRC_CLUSTER_RECOVERY_H_
#define ROCKSTEADY_SRC_CLUSTER_RECOVERY_H_

#include <functional>
#include <vector>

#include "src/cluster/coordinator.h"

namespace rocksteady {

class MasterServer;

class RecoveryManager {
 public:
  explicit RecoveryManager(Coordinator* coordinator) : coordinator_(coordinator) {}

  // Recovers `crashed` (already halted and off the network). `done` fires
  // when every affected tablet is owned, replayed, and serving again.
  void RecoverServer(ServerId crashed, std::function<void()> done);

  // Aborts an in-flight migration (a wedged target detected by lease expiry,
  // or a target's own abort request): ownership returns to the source per
  // the §3.4 lineage rule, the target drops its partial side-log state, and
  // the source replays the target's log tail — the writes the target
  // serviced after ownership transfer. With `keep_if_committed` (the lease
  // path) a target that already committed keeps the range and only the
  // stale dependency row is dropped. `done(committed)` may be null.
  void AbortMigrationToSource(const MigrationDependency& dependency, bool keep_if_committed,
                              std::function<void(bool committed)> done);

 private:
  // One recovery master's share of the work (a kRecover request).
  struct Plan {
    ServerId recovery_master = 0;
    std::vector<RecoverRange> ranges;
    std::vector<RecoverSource> sources;
  };

  // Sends `plan` to its recovery master; `done` fires when it replies.
  void SendPlan(Plan plan, std::function<void()> done);
  // Asks the dependency's target to abort its inbound migration and hand
  // back its log tail. `on_tail` gets where to replay the tail from: inline,
  // or the target's backups when it is down or does not answer — or
  // committed = true when keep_if_committed found the migration done.
  void TakeTargetTail(const MigrationDependency& dependency, bool keep_if_committed,
                      std::function<void(bool committed, RecoverSource tail)> on_tail);

  Coordinator* coordinator_;
};

// The recovery master's side of a kRecover request: installs the ranges in
// kRecovering, replays every source, marks the ranges kNormal and replies.
void RunRecovery(MasterServer* rm, RpcContext context);

// Serialized main-log entries of `master` for [start_hash, end_hash] of
// `table` from (min_segment, min_offset) on: a live migration target's log
// tail, which holds every write it could ever have acked for the range.
ByteSlice CollectLogTail(MasterServer* master, TableId table, KeyHash start_hash,
                         KeyHash end_hash, uint32_t min_segment, uint32_t min_offset);

}  // namespace rocksteady

#endif  // ROCKSTEADY_SRC_CLUSTER_RECOVERY_H_
