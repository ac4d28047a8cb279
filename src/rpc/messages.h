// RPC message types.
//
// All RAMCloud/Rocksteady operations travel as typed request/response objects
// through the simulated fabric. Payloads are real C++ objects (records carry
// real bytes); WireSize() declares how many bytes the message charges against
// link bandwidth, mirroring a compact binary wire format. Log bytes (replica
// writes, recovery data, pull replies, baseline batches) travel as
// ByteSlices: frozen once filled, so copying a message shares them.
#ifndef ROCKSTEADY_SRC_RPC_MESSAGES_H_
#define ROCKSTEADY_SRC_RPC_MESSAGES_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/byte_slice.h"
#include "src/common/intrusive_ptr.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/sim/network.h"

namespace rocksteady {

enum class Opcode : uint8_t {
  kInvalid = 0,
  // Data path.
  kRead,
  kWrite,
  kRemove,
  kMultiGet,       // By full key (Figure 3 workload).
  kMultiGetHash,   // By primary key hash (index-driven reads, Figure 4).
  kIndexLookup,    // Short secondary-index range scan: returns key hashes.
  kIndexInsert,    // Master -> indexlet owner on writes to indexed tables.
  // Replication and recovery.
  kBackupWrite,
  kGetRecoveryData,
  // Coordinator.
  kGetTableConfig,
  kRegisterDependency,
  kDropDependency,
  kUpdateOwnership,
  kPing,                // Coordinator -> server: failure detector probe.
  kMigrationHeartbeat,  // Target manager -> coordinator: lease renewal.
  kAbortMigration,      // Target manager -> coordinator: abort gracefully.
  // Rocksteady migration.
  kMigrateTablet,     // Client -> target: start migration.
  kPrepareMigration,  // Target -> source: mark tablet immutable, get horizon.
  kPull,              // Target -> source: bulk batch (lowest priority).
  kPriorityPull,      // Target -> source: specific hashes (highest priority).
  kReleaseTablet,     // Target -> source: migration done, drop your copy.
  // Baseline (pre-existing RAMCloud) migration.
  kBaselineMigrate,  // Client -> source: start source-driven migration.
  kBaselineReplay,   // Source -> target: batch of records to replay.
  // Cluster operations (drain/decommission protocol). Appended last so the
  // pre-existing opcodes keep their values (recorded bench trace hashes
  // depend on wire timing, not values, but stability costs nothing).
  kBeginDrain,      // Operator -> coordinator: start evacuating a master.
  kActivateServer,  // Operator -> coordinator: admit standby / cancel drain.
  kDrainStatus,     // Operator -> coordinator: poll drain progress.
  // Coordinator -> master ownership hand-offs (RAMCloud's recovery-master,
  // split-mirror and drain-flag RPCs): the coordinator never touches a
  // master's state directly.
  kRecover,                // Assign recovery-master work; replies when replayed.
  kAbortInboundMigration,  // Target drops an inbound migration; returns its log tail.
  kSplitTablet,            // Mirror a map split onto the owning master.
  kSetDraining,            // Set or clear the master's drain latch.
};

// Fixed per-RPC wire overhead (headers, opcode, ids).
inline constexpr size_t kRpcHeaderBytes = 32;

// Requests are intrusively refcounted: the transport shares one request
// object between the pending-call table and every in-flight (re)transmission
// without a separately-allocated shared_ptr control block.
struct RpcRequest : RefCounted {
  virtual ~RpcRequest() = default;
  virtual Opcode op() const = 0;
  virtual size_t WireSize() const = 0;

  // RIFL's first-incomplete watermark: every counted call from this caller
  // to this server with a lower call_id is finished (completed or timed
  // out), so the server may forget them. `counted` = the server keeps a
  // dedup entry for this call (it can retransmit, or the fabric has had
  // faults), so this call holds the caller's watermark until it finishes.
  // Stamped by RpcSystem::Call before the first send and read-only
  // afterwards, so every retransmission and duplicate carries the same
  // values. They ride the fixed header (kRpcHeaderBytes): no request type
  // counts them in WireSize().
  uint64_t first_incomplete = 0;
  bool counted = false;
};

struct RpcResponse {
  virtual ~RpcResponse() = default;
  virtual size_t WireSize() const { return kRpcHeaderBytes; }
  // Copy, used by the transport's duplicate-suppression cache to replay a
  // completed call's response to a retransmitted request. ByteSlice fields
  // share their (immutable) bytes with the original. Pure virtual so a new
  // response type cannot silently slice when cached.
  virtual std::unique_ptr<RpcResponse> Clone() const = 0;

  Status status = Status::kOk;
};

// Source-load signals piggybacked on pull replies (adaptive pacing, §4.2):
// the migration target reads these to modulate its in-flight pull count and
// per-pull byte budget with an AIMD controller, backing off when client tail
// latency at the source degrades and ramping up when headroom returns.
struct SourceLoadHeader {
  bool valid = false;                // Set by sources that fill the header.
  uint32_t client_queue_depth = 0;   // Queued kClient-priority worker tasks.
  Tick dispatch_backlog_ns = 0;      // How far behind the dispatch core is.
  Tick recent_p999_ns = 0;           // Recent windowed p99.9 client latency.
};

// --- Generic piggyback blobs (heartbeat/lease payload hook). ---
// Control-plane RPCs that already flow periodically (failure-detector ping
// replies, migration lease heartbeats) can carry one optional opaque payload
// instead of every subsystem growing a parallel RPC. The kind tags the
// payload for routing at the coordinator; a receiver with no handler for the
// kind simply ignores the blob. The bytes are an encoding owned entirely by
// the producing subsystem (e.g. src/rebalance's load-telemetry frames) — the
// RPC layer never interprets them.
enum class PiggybackKind : uint8_t {
  kNone = 0,
  kLoadTelemetry = 1,  // src/rebalance: per-tablet load frame.
};

struct PiggybackBlob {
  PiggybackKind kind = PiggybackKind::kNone;
  std::vector<uint8_t> bytes;

  bool empty() const { return kind == PiggybackKind::kNone || bytes.empty(); }
  // Charged wire bytes: kind tag + length prefix + payload (nothing if unset).
  size_t WireSize() const { return empty() ? 0 : bytes.size() + 3; }
};

// Every concrete response type declares itself copy-cloneable with this.
#define ROCKSTEADY_CLONEABLE_RESPONSE(Type) \
  std::unique_ptr<RpcResponse> Clone() const override { return std::make_unique<Type>(*this); }

// Convenience base: empty response carrying only a status.
struct StatusResponse : RpcResponse {
  ROCKSTEADY_CLONEABLE_RESPONSE(StatusResponse)
};

// ------------------------------------------------------------- Data path.

struct ReadRequest : RpcRequest {
  TableId table = 0;
  std::string key;
  KeyHash hash = 0;

  Opcode op() const override { return Opcode::kRead; }
  size_t WireSize() const override { return kRpcHeaderBytes + key.size() + 8; }
};

struct ReadResponse : RpcResponse {
  std::string value;
  Version version = 0;
  // For Status::kRetryLater: when the target expects the record to be
  // available (absolute simulated time).
  Tick retry_after = 0;

  size_t WireSize() const override { return kRpcHeaderBytes + value.size(); }
  ROCKSTEADY_CLONEABLE_RESPONSE(ReadResponse)
};

struct WriteRequest : RpcRequest {
  TableId table = 0;
  std::string key;
  KeyHash hash = 0;
  std::string value;
  // Secondary key for indexed tables (empty = unindexed).
  std::string secondary_key;

  Opcode op() const override { return Opcode::kWrite; }
  size_t WireSize() const override {
    return kRpcHeaderBytes + key.size() + value.size() + secondary_key.size() + 8;
  }
};

struct WriteResponse : RpcResponse {
  Version version = 0;
  // For Status::kRetryLater (tablet still replaying recovered data):
  // absolute simulated time after which to re-issue.
  Tick retry_after = 0;

  ROCKSTEADY_CLONEABLE_RESPONSE(WriteResponse)
};

struct RemoveRequest : RpcRequest {
  TableId table = 0;
  std::string key;
  KeyHash hash = 0;

  Opcode op() const override { return Opcode::kRemove; }
  size_t WireSize() const override { return kRpcHeaderBytes + key.size() + 8; }
};

struct RemoveResponse : RpcResponse {
  Version version = 0;
  // For Status::kRetryLater (tablet still replaying recovered data):
  // absolute simulated time after which to re-issue.
  Tick retry_after = 0;

  ROCKSTEADY_CLONEABLE_RESPONSE(RemoveResponse)
};

struct MultiGetRequest : RpcRequest {
  TableId table = 0;
  std::vector<std::string> keys;
  std::vector<KeyHash> hashes;

  Opcode op() const override { return Opcode::kMultiGet; }
  size_t WireSize() const override {
    size_t size = kRpcHeaderBytes + hashes.size() * 8;
    for (const auto& key : keys) {
      size += key.size();
    }
    return size;
  }
};

struct MultiGetResponse : RpcResponse {
  std::vector<Status> statuses;
  std::vector<std::string> values;
  Tick retry_after = 0;  // Set when any entry is kRetryLater.

  size_t WireSize() const override {
    size_t size = kRpcHeaderBytes + statuses.size();
    for (const auto& value : values) {
      size += value.size();
    }
    return size;
  }
  ROCKSTEADY_CLONEABLE_RESPONSE(MultiGetResponse)
};

struct MultiGetHashRequest : RpcRequest {
  TableId table = 0;
  std::vector<KeyHash> hashes;

  Opcode op() const override { return Opcode::kMultiGetHash; }
  size_t WireSize() const override { return kRpcHeaderBytes + hashes.size() * 8; }
};

using MultiGetHashResponse = MultiGetResponse;

struct IndexLookupRequest : RpcRequest {
  TableId table = 0;
  uint8_t index_id = 0;
  std::string start_key;  // First secondary key of the scan.
  uint32_t count = 4;     // Figure 4: short 4-record scans.

  Opcode op() const override { return Opcode::kIndexLookup; }
  size_t WireSize() const override { return kRpcHeaderBytes + start_key.size() + 8; }
};

struct IndexLookupResponse : RpcResponse {
  std::vector<KeyHash> hashes;  // Indexes store primary key hashes (Fig. 2).

  size_t WireSize() const override { return kRpcHeaderBytes + hashes.size() * 8; }
  ROCKSTEADY_CLONEABLE_RESPONSE(IndexLookupResponse)
};

struct IndexInsertRequest : RpcRequest {
  TableId table = 0;
  uint8_t index_id = 0;
  std::string secondary_key;
  KeyHash primary_hash = 0;

  Opcode op() const override { return Opcode::kIndexInsert; }
  size_t WireSize() const override { return kRpcHeaderBytes + secondary_key.size() + 8; }
};

// ------------------------------------------------ Replication / recovery.

struct BackupWriteRequest : RpcRequest {
  ServerId master = 0;
  uint32_t segment_id = 0;
  uint32_t offset = 0;
  ByteSlice data;  // Real log bytes, replayable at recovery; shared, not copied.
  bool seal = false;
  // Bulk (lazy re-replication / recovery) writes are processed at background
  // priority on the backup so durable foreground writes never queue behind
  // them — the deferred-re-replication spirit of §3.4.
  bool bulk = false;

  Opcode op() const override { return Opcode::kBackupWrite; }
  size_t WireSize() const override { return kRpcHeaderBytes + data.size() + 16; }
};

struct GetRecoveryDataRequest : RpcRequest {
  ServerId crashed_master = 0;
  // Only segments with id >= min_segment_id (used for lineage tail replay:
  // the dependency names a log offset, §3.4).
  uint32_t min_segment_id = 0;

  Opcode op() const override { return Opcode::kGetRecoveryData; }
  size_t WireSize() const override { return kRpcHeaderBytes + 8; }
};

struct RecoverySegment {
  uint32_t segment_id = 0;
  ByteSlice data;
};

struct GetRecoveryDataResponse : RpcResponse {
  std::vector<RecoverySegment> segments;

  size_t WireSize() const override {
    size_t size = kRpcHeaderBytes;
    for (const auto& segment : segments) {
      size += segment.data.size() + 8;
    }
    return size;
  }
  ROCKSTEADY_CLONEABLE_RESPONSE(GetRecoveryDataResponse)
};

// ------------------------------------------------------------ Coordinator.

struct TabletConfigEntry {
  TableId table = 0;
  KeyHash start_hash = 0;
  KeyHash end_hash = 0;
  ServerId owner = 0;
  NodeId owner_node = 0;
};

struct GetTableConfigRequest : RpcRequest {
  TableId table = 0;

  Opcode op() const override { return Opcode::kGetTableConfig; }
  size_t WireSize() const override { return kRpcHeaderBytes; }
};

struct GetTableConfigResponse : RpcResponse {
  std::vector<TabletConfigEntry> tablets;

  size_t WireSize() const override { return kRpcHeaderBytes + tablets.size() * 28; }
  ROCKSTEADY_CLONEABLE_RESPONSE(GetTableConfigResponse)
};

struct RegisterDependencyRequest : RpcRequest {
  // §3.4: "the dependency ... consists of two integers: one indicating which
  // master's log it depends on (the target's), and another indicating the
  // offset into the log where the dependency starts." Plus enough tablet
  // metadata for recovery to act on it.
  ServerId source = 0;
  ServerId target = 0;
  TableId table = 0;
  KeyHash start_hash = 0;
  KeyHash end_hash = 0;
  uint32_t target_log_segment = 0;  // Dependency starts at this segment...
  uint32_t target_log_offset = 0;   // ...and offset of the target's log.

  Opcode op() const override { return Opcode::kRegisterDependency; }
  size_t WireSize() const override { return kRpcHeaderBytes + 40; }
};

struct DropDependencyRequest : RpcRequest {
  ServerId source = 0;
  ServerId target = 0;
  TableId table = 0;

  Opcode op() const override { return Opcode::kDropDependency; }
  size_t WireSize() const override { return kRpcHeaderBytes + 16; }
};

struct UpdateOwnershipRequest : RpcRequest {
  TableId table = 0;
  KeyHash start_hash = 0;
  KeyHash end_hash = 0;
  ServerId new_owner = 0;

  Opcode op() const override { return Opcode::kUpdateOwnership; }
  size_t WireSize() const override { return kRpcHeaderBytes + 28; }
};

struct PingRequest : RpcRequest {
  Opcode op() const override { return Opcode::kPing; }
  size_t WireSize() const override { return kRpcHeaderBytes; }
};

struct PingResponse : RpcResponse {
  ServerId server = 0;
  // Optional payload riding the existing probe (load telemetry, ...).
  PiggybackBlob piggyback;

  size_t WireSize() const override { return kRpcHeaderBytes + 4 + piggyback.WireSize(); }
  ROCKSTEADY_CLONEABLE_RESPONSE(PingResponse)
};

struct MigrationHeartbeatRequest : RpcRequest {
  // Identifies the migration by its dependency edge; the coordinator renews
  // the lease it tracks for this (source, target, table) tuple.
  ServerId source = 0;
  ServerId target = 0;
  TableId table = 0;
  // Optional payload riding the lease renewal (a migration target's load
  // telemetry reaches the coordinator on this faster cadence mid-migration).
  PiggybackBlob piggyback;

  Opcode op() const override { return Opcode::kMigrationHeartbeat; }
  size_t WireSize() const override { return kRpcHeaderBytes + 16 + piggyback.WireSize(); }
};

struct AbortMigrationRequest : RpcRequest {
  // Target manager -> coordinator: the target cannot finish (e.g. the tablet
  // does not fit its memory budget even after emergency cleaning) and asks
  // for a graceful abort along the §3.4 lineage paths: ownership returns to
  // the source and the target's durable log tail (which holds every acked
  // write since the switch) is replayed there. Identified by the dependency
  // edge, like the heartbeat.
  ServerId source = 0;
  ServerId target = 0;
  TableId table = 0;

  Opcode op() const override { return Opcode::kAbortMigration; }
  size_t WireSize() const override { return kRpcHeaderBytes + 16; }
};

// --- Cluster operations (drain/decommission protocol). ---

struct BeginDrainRequest : RpcRequest {
  // Operator/orchestrator -> coordinator: mark `server` kDraining. The
  // coordinator latches the flag in its quorum-replicated metadata; the
  // rebalance planner then mass-evacuates the server's tablets.
  ServerId server = 0;

  Opcode op() const override { return Opcode::kBeginDrain; }
  size_t WireSize() const override { return kRpcHeaderBytes + 4; }
};

struct ActivateServerRequest : RpcRequest {
  // Operator/orchestrator -> coordinator: move `server` to kActive (admit a
  // standby into placement, cancel a drain, or re-commission).
  ServerId server = 0;

  Opcode op() const override { return Opcode::kActivateServer; }
  size_t WireSize() const override { return kRpcHeaderBytes + 4; }
};

struct DrainStatusRequest : RpcRequest {
  ServerId server = 0;

  Opcode op() const override { return Opcode::kDrainStatus; }
  size_t WireSize() const override { return kRpcHeaderBytes + 4; }
};

struct DrainStatusResponse : RpcResponse {
  // Numeric ServerLifecycle value (the enum lives with the coordinator; the
  // wire carries the raw byte).
  uint8_t lifecycle = 0;
  uint32_t tablets_remaining = 0;       // Map ranges still owned.
  uint32_t dependencies_remaining = 0;  // Lineage edges still naming it.

  size_t WireSize() const override { return kRpcHeaderBytes + 9; }
  ROCKSTEADY_CLONEABLE_RESPONSE(DrainStatusResponse)
};

// --- Coordinator -> master hand-offs (crash recovery, splits, drains). ---

struct RecoverRange {
  TableId table = 0;
  KeyHash start_hash = 0;
  KeyHash end_hash = 0;
};

// One log whose entries for the recovered ranges the recovery master
// replays: fetched from `backups` (from min_segment on, skipping entries
// below min_offset in min_segment), or — when the coordinator already holds
// a live target's log tail — shipped inline.
struct RecoverSource {
  ServerId data_of = 0;
  uint32_t min_segment = 0;
  uint32_t min_offset = 0;
  bool inline_tail = false;
  ByteSlice tail;  // Serialized entries, when inline_tail.
};

struct RecoverRequest : RpcRequest {
  // Coordinator -> recovery master: install `ranges` in kRecovering, replay
  // every source, then serve them (kNormal) and reply.
  std::vector<RecoverRange> ranges;
  std::vector<RecoverSource> sources;
  std::vector<NodeId> backups;  // Alive servers to fetch segments from.

  Opcode op() const override { return Opcode::kRecover; }
  size_t WireSize() const override {
    size_t size = kRpcHeaderBytes + ranges.size() * 24 + backups.size() * 4;
    for (const auto& source : sources) {
      size += 16 + source.tail.size();
    }
    return size;
  }
};

struct AbortInboundMigrationRequest : RpcRequest {
  // Coordinator -> migration target: abort the inbound migration of this
  // range, drop the tablet, and return every log entry for it from
  // (min_segment, min_offset) on — the writes served since the switch.
  // With keep_if_committed, a migration that already committed is left
  // alone and reported instead (its DropDependency was lost).
  TableId table = 0;
  KeyHash start_hash = 0;
  KeyHash end_hash = 0;
  uint32_t min_segment = 0;
  uint32_t min_offset = 0;
  bool keep_if_committed = false;

  Opcode op() const override { return Opcode::kAbortInboundMigration; }
  size_t WireSize() const override { return kRpcHeaderBytes + 33; }
};

struct AbortInboundMigrationResponse : RpcResponse {
  bool committed = false;
  ByteSlice tail;

  size_t WireSize() const override { return kRpcHeaderBytes + 1 + tail.size(); }
  ROCKSTEADY_CLONEABLE_RESPONSE(AbortInboundMigrationResponse)
};

struct SplitTabletRequest : RpcRequest {
  TableId table = 0;
  KeyHash split_hash = 0;

  Opcode op() const override { return Opcode::kSplitTablet; }
  size_t WireSize() const override { return kRpcHeaderBytes + 16; }
};

struct SetDrainingRequest : RpcRequest {
  bool draining = false;
  // Latches apply in epoch order, so a retransmitted older latch can never
  // undo a newer one.
  uint64_t epoch = 0;

  Opcode op() const override { return Opcode::kSetDraining; }
  size_t WireSize() const override { return kRpcHeaderBytes + 9; }
};

// ------------------------------------------------- Rocksteady migration.

struct MigrateTabletRequest : RpcRequest {
  TableId table = 0;
  KeyHash start_hash = 0;
  KeyHash end_hash = 0;
  ServerId source = 0;

  Opcode op() const override { return Opcode::kMigrateTablet; }
  size_t WireSize() const override { return kRpcHeaderBytes + 28; }
};

struct PrepareMigrationRequest : RpcRequest {
  TableId table = 0;
  KeyHash start_hash = 0;
  KeyHash end_hash = 0;
  ServerId target = 0;
  // When true, the source marks the tablet immutable (kMigrationSource) and
  // stops serving it — the normal Rocksteady ownership transfer. When
  // false, the source only reports its horizon and hash-table geometry (the
  // pre-copy "source retains ownership" comparison mode, Figure 9c).
  bool freeze = true;

  Opcode op() const override { return Opcode::kPrepareMigration; }
  size_t WireSize() const override { return kRpcHeaderBytes + 28; }
};

struct PrepareMigrationResponse : RpcResponse {
  // Seeds the target's version horizon above anything the source ever
  // issued, so target writes always win over replayed source records.
  Version version_horizon = 0;
  // The source's hash-table geometry, so the target can partition the
  // source's bucket space for parallel Pulls (§3.1.1).
  uint64_t num_hash_buckets = 0;

  ROCKSTEADY_CLONEABLE_RESPONSE(PrepareMigrationResponse)
};

struct PullRequest : RpcRequest {
  TableId table = 0;
  KeyHash start_hash = 0;
  KeyHash end_hash = 0;
  // Bucket range of this partition and the scan cursor within it.
  uint64_t bucket_begin = 0;
  uint64_t bucket_end = 0;
  uint64_t cursor = 0;
  // §4.1: each Pull returns ~20 KB of data.
  uint32_t budget_bytes = 20 * 1024;
  // Only return records with version > min_version (delta rounds of the
  // pre-copy comparison mode; 0 = everything).
  Version min_version = 0;

  Opcode op() const override { return Opcode::kPull; }
  size_t WireSize() const override { return kRpcHeaderBytes + 48; }
};

struct PullResponse : RpcResponse {
  // Concatenated serialized log entries (validated on replay).
  ByteSlice records;
  uint32_t record_count = 0;
  uint64_t next_cursor = 0;
  bool done = false;  // Partition exhausted.
  // Piggybacked source-load signals (adaptive pacing).
  SourceLoadHeader load;
  // For Status::kRetryLater (admission control shed the pull): absolute
  // simulated time after which the target should re-issue.
  Tick retry_after = 0;

  size_t WireSize() const override { return kRpcHeaderBytes + records.size() + 16; }
  ROCKSTEADY_CLONEABLE_RESPONSE(PullResponse)
};

struct PriorityPullRequest : RpcRequest {
  TableId table = 0;
  std::vector<KeyHash> hashes;  // Batched (§3.3).

  Opcode op() const override { return Opcode::kPriorityPull; }
  size_t WireSize() const override { return kRpcHeaderBytes + hashes.size() * 8; }
};

struct PriorityPullResponse : RpcResponse {
  ByteSlice records;
  uint32_t record_count = 0;
  // Hashes with no record at the source: authoritatively absent (the
  // migrating tablet is immutable at the source).
  std::vector<KeyHash> not_found;
  // Piggybacked source-load signals (adaptive pacing).
  SourceLoadHeader load;

  size_t WireSize() const override {
    return kRpcHeaderBytes + records.size() + not_found.size() * 8;
  }
  ROCKSTEADY_CLONEABLE_RESPONSE(PriorityPullResponse)
};

// ---------------------------------------------------- Baseline migration.

struct BaselineMigrateOptions {
  // Figure 5's knobs, cumulative from the bottom of the ladder up:
  bool skip_rereplication = false;  // Target skips synchronous re-replication.
  bool skip_replay = false;         // Target drops batches without replaying.
  bool skip_tx = false;             // Source does all work but never sends.
  bool skip_copy = false;           // Source only identifies, never copies.
};

struct BaselineMigrateRequest : RpcRequest {
  TableId table = 0;
  KeyHash start_hash = 0;
  KeyHash end_hash = 0;
  ServerId target = 0;
  BaselineMigrateOptions options;

  Opcode op() const override { return Opcode::kBaselineMigrate; }
  size_t WireSize() const override { return kRpcHeaderBytes + 32; }
};

struct BaselineReplayRequest : RpcRequest {
  TableId table = 0;
  ByteSlice records;
  uint32_t record_count = 0;
  bool last_batch = false;
  bool skip_replay = false;
  bool skip_rereplication = false;
  // On the last batch: the source's version horizon, so the target's
  // versions continue above the source's after the ownership switch.
  Version version_horizon = 0;
  // Sent once every batch is acked, before the ownership switch: the target
  // installs [start_hash, end_hash] as a normal tablet.
  bool install_tablet = false;
  KeyHash start_hash = 0;
  KeyHash end_hash = 0;

  Opcode op() const override { return Opcode::kBaselineReplay; }
  size_t WireSize() const override { return kRpcHeaderBytes + records.size() + 8; }
};

struct ReleaseTabletRequest : RpcRequest {
  TableId table = 0;
  KeyHash start_hash = 0;
  KeyHash end_hash = 0;

  Opcode op() const override { return Opcode::kReleaseTablet; }
  size_t WireSize() const override { return kRpcHeaderBytes + 24; }
};

}  // namespace rocksteady

#endif  // ROCKSTEADY_SRC_RPC_MESSAGES_H_
