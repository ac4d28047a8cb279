// ObjectManager: a master's storage engine (log + hash table + tablets).
//
// All data operations live here; ownership/migration policy lives in the
// MasterServer above it. Versioning rule: each master keeps a monotonic
// version horizon; MigrateTablet seeds the target's horizon above the
// source's, so a write serviced at the target *before* the old copy of the
// same key arrives always carries a higher version — replay then becomes a
// simple "incorporate only if newer" rule, and replaying records in any
// order or any number of times is idempotent (what lets Rocksteady replay on
// any idle core, §3.1.3, and recover by re-running logs, §3.4).
#ifndef ROCKSTEADY_SRC_STORE_OBJECT_MANAGER_H_
#define ROCKSTEADY_SRC_STORE_OBJECT_MANAGER_H_

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "src/common/byte_slice.h"
#include "src/common/status.h"
#include "src/hashtable/hash_table.h"
#include "src/log/log.h"
#include "src/log/log_cleaner.h"
#include "src/log/side_log.h"
#include "src/store/tablet.h"

namespace rocksteady {

struct ObjectView {
  std::string_view key;
  std::string_view value;
  Version version = 0;
};

struct ObjectManagerOptions {
  int hash_table_log2_buckets = 20;
  size_t segment_size = kDefaultSegmentSize;
};

class ObjectManager {
 public:
  explicit ObjectManager(const ObjectManagerOptions& options = {});

  ObjectManager(const ObjectManager&) = delete;
  ObjectManager& operator=(const ObjectManager&) = delete;

  // --- Normal-case data path (tablet checks happen in MasterServer). ---
  Result<ObjectView> Read(TableId table, std::string_view key, KeyHash hash) const;
  // Index-driven reads address objects by hash alone (indexes store hashes,
  // not keys — Figure 2).
  Result<ObjectView> ReadByHash(TableId table, KeyHash hash) const;
  // On success, `out_ref` (if non-null) receives the new entry's location
  // (used by the write path to replicate the entry's bytes).
  Result<Version> Write(TableId table, std::string_view key, KeyHash hash,
                        std::string_view value, LogRef* out_ref = nullptr);
  // On success, `out_ref` (if non-null) receives the tombstone's location so
  // the caller can replicate it (deletes must be durable too).
  //
  // `tombstone_if_missing`: write a tombstone even when no local copy
  // exists. Required on a migration target (deletes are writes and are
  // serviced immediately, §3) — without the tombstone, a later-arriving
  // older copy of the key would resurrect it.
  Result<Version> Remove(TableId table, std::string_view key, KeyHash hash,
                         LogRef* out_ref = nullptr, bool tombstone_if_missing = false);

  // --- Replay (migration and recovery). ---
  // Incorporates `entry` if it is newer than any local copy. When `side_log`
  // is non-null the record lands there (Rocksteady parallel replay);
  // otherwise it goes to the main log (recovery, baseline migration).
  // Returns true if the entry was incorporated, false if stale/duplicate.
  bool Replay(const LogEntryView& entry, SideLog* side_log);

  // Replays the entries packed back to back in `records` (a pull reply, a
  // priority-pull batch, a baseline batch, a recovered segment) in order
  // into `side_log`, or the main log when it is null, and stops at the
  // first entry that does not parse (a torn tail). `accept`, if given,
  // picks the entries to replay by offset and content. While one entry
  // replays, the next one's bucket is prefetched. Returns the entries passed
  // to Replay and their bytes, stale ones included.
  struct ReplayTally {
    size_t records = 0;
    size_t bytes = 0;
  };
  using ReplayFilter = std::function<bool(size_t offset, const LogEntryView& entry)>;
  ReplayTally ReplayRecords(std::span<const uint8_t> records, SideLog* side_log,
                            const ReplayFilter& accept = nullptr);

  // Drops every hash-table entry that points into uncommitted side-log
  // segments of `side_log` (aborting a half-done migration).
  size_t DropSideLogEntries(const SideLog& side_log);

  // --- Migration source. ---
  // One Pull's worth of a tablet (§3.1.1).
  struct PullBatch {
    ByteSlice records;  // Copied log entries, back to back.
    size_t record_count = 0;
    size_t next_cursor = 0;  // First bucket not scanned yet.
    bool done = false;       // next_cursor reached the end bucket.
  };
  // Scans buckets [cursor, end_bucket) in table order and copies every
  // object of `table` whose key hash lies in [start_hash, end_hash] (the
  // range's boundary buckets hold other hashes too) and whose version is
  // above `min_version` (0 takes all; pre-copy delta rounds pass the last
  // round's horizon). Pauses after the first whole bucket that brings the
  // copy to `budget_bytes`, so a pull never splits a bucket. Prefetches
  // buckets and entries ahead of the scan (HashTable::kEntryLookahead).
  PullBatch PullRange(TableId table, KeyHash start_hash, KeyHash end_hash, Version min_version,
                      size_t cursor, size_t end_bucket, size_t budget_bytes) const;

  // Removes all entries belonging to the tablet range (after a completed
  // outbound migration the source frees the records; the cleaner reclaims
  // the log space).
  size_t DropTabletEntries(TableId table, KeyHash start_hash, KeyHash end_hash);

  // Resident bytes of live records in [start_hash, end_hash] of `table`
  // (log-entry footprint: header + key + value). The rebalancer sizes a
  // candidate tablet with this before migrating it into a budget-limited
  // target. Walks the range's buckets, as a pull does; callers sample it at
  // telemetry cadence, not per request.
  uint64_t EstimateRangeBytes(TableId table, KeyHash start_hash, KeyHash end_hash) const;

  // --- Cleaner. ---
  // Runs up to `max_segments` cleaning passes; returns segments cleaned.
  size_t RunCleaner(size_t max_segments = 1);
  // Memory-pressure cleaning: frees the most reclaimable segments first
  // (see LogCleaner::EmergencyClean). Returns segments cleaned; 0 means
  // cleaning cannot reclaim anything and the caller must back off or abort.
  size_t RunEmergencyCleaner(size_t max_segments = 1);
  const LogCleaner& cleaner() const { return cleaner_; }

  // --- Accessors. ---
  Log& log() { return log_; }
  const Log& log() const { return log_; }
  HashTable& hash_table() { return hash_table_; }
  const HashTable& hash_table() const { return hash_table_; }
  TabletManager& tablets() { return tablets_; }
  const TabletManager& tablets() const { return tablets_; }

  Version version_horizon() const { return version_horizon_; }
  void RaiseVersionHorizon(Version at_least) {
    version_horizon_ = std::max(version_horizon_, at_least);
  }

  uint64_t object_count() const { return hash_table_.size(); }

  // Composite audit: log, hash table (against this log), tablet map, plus
  // the versioning rule the replay safety argument rests on — no referenced
  // entry may carry a version above the master's horizon (otherwise a
  // migrated-in record could beat a local write it should lose to).
  void AuditInvariants(AuditReport* report) const;

 private:
  Result<ObjectView> ViewAt(LogRef ref, TableId table) const;

  Log log_;
  HashTable hash_table_;
  TabletManager tablets_;
  LogCleaner cleaner_;
  Version version_horizon_ = 0;
};

}  // namespace rocksteady

#endif  // ROCKSTEADY_SRC_STORE_OBJECT_MANAGER_H_
