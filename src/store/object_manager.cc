#include "src/store/object_manager.h"

#include <cassert>
#include <cstring>

#include "src/common/dcheck.h"
#include "src/common/logging.h"

namespace rocksteady {

namespace {

// Visits every entry of `table` whose key hash lies in [start_hash,
// end_hash], bucket by bucket over [cursor, end_bucket) in table order, with
// the scan's bucket and entry prefetch. `bucket_done` runs after each whole
// bucket and returns false to pause. Returns the next cursor.
template <typename Visit>
size_t ScanRange(const HashTable& hash_table, const Log& log, TableId table, KeyHash start_hash,
                 KeyHash end_hash, size_t cursor, size_t end_bucket, Visit&& visit,
                 const std::function<bool()>& bucket_done) {
  return hash_table.ScanBuckets(
      end_bucket, cursor,
      [&](KeyHash hash, LogRef ref) {
        if (hash < start_hash || hash > end_hash) {
          return;  // Boundary bucket: hash outside the range.
        }
        LogEntryView entry;
        if (log.Read(ref, &entry) && entry.table_id() == table) {
          visit(entry);
        }
      },
      bucket_done, &log);
}

}  // namespace

ObjectManager::ObjectManager(const ObjectManagerOptions& options)
    : log_(options.segment_size),
      hash_table_(options.hash_table_log2_buckets),
      cleaner_(&log_, [this](LogRef old_ref, const LogEntryView& entry) {
        // Relocator: live entries move to the log head; their hash-table
        // reference is CASed to the new location. Unreferenced entries
        // (overwritten objects, satisfied tombstones) are dropped — their
        // bytes survive on the backups for recovery.
        if (!(hash_table_.Lookup(entry.key_hash()) == old_ref)) {
          return false;  // Dead: overwritten or removed since.
        }
        Result<LogRef> moved = log_.AppendSerialized(entry);
        assert(moved.ok());
        const bool swapped = hash_table_.Replace(entry.key_hash(), old_ref, *moved);
        assert(swapped);
        (void)swapped;
        return true;
      }) {}

Result<ObjectView> ObjectManager::ViewAt(LogRef ref, TableId table) const {
  LogEntryView entry;
  if (!log_.Read(ref, &entry)) {
    return Status::kCorruptData;
  }
  if (entry.type() != LogEntryType::kObject || entry.table_id() != table) {
    return Status::kObjectNotFound;
  }
  return ObjectView{entry.key, entry.value, entry.version()};
}

Result<ObjectView> ObjectManager::Read(TableId table, std::string_view key, KeyHash hash) const {
  const LogRef ref = hash_table_.Lookup(hash);
  if (!ref.valid()) {
    return Status::kObjectNotFound;
  }
  auto view = ViewAt(ref, table);
  if (view.ok() && view->key != key) {
    // 64-bit hash collision between distinct keys; the simulated store
    // treats the hash as identity, so surface this loudly.
    LOG_ERROR("key-hash collision on table %llu", static_cast<unsigned long long>(table));
    return Status::kObjectNotFound;
  }
  return view;
}

Result<ObjectView> ObjectManager::ReadByHash(TableId table, KeyHash hash) const {
  const LogRef ref = hash_table_.Lookup(hash);
  if (!ref.valid()) {
    return Status::kObjectNotFound;
  }
  return ViewAt(ref, table);
}

Result<Version> ObjectManager::Write(TableId table, std::string_view key, KeyHash hash,
                                     std::string_view value, LogRef* out_ref) {
  const LogRef old_ref = hash_table_.Lookup(hash);
  Version version = version_horizon_ + 1;
  if (old_ref.valid()) {
    LogEntryView old_entry;
    if (log_.Read(old_ref, &old_entry)) {
      version = std::max(version, old_entry.version() + 1);
    }
  }
  auto ref = log_.AppendObject(table, hash, key, value, version);
  if (!ref.ok()) {
    return ref.status();
  }
  hash_table_.Insert(hash, *ref);
  if (old_ref.valid()) {
    log_.MarkDead(old_ref);
  }
  version_horizon_ = std::max(version_horizon_, version);
  if (out_ref != nullptr) {
    *out_ref = *ref;
  }
  return version;
}

Result<Version> ObjectManager::Remove(TableId table, std::string_view key, KeyHash hash,
                                      LogRef* out_ref, bool tombstone_if_missing) {
  const LogRef old_ref = hash_table_.Lookup(hash);
  Version floor = version_horizon_;
  bool have_object = false;
  if (old_ref.valid()) {
    LogEntryView old_entry;
    if (!log_.Read(old_ref, &old_entry)) {
      return Status::kCorruptData;
    }
    floor = std::max(floor, old_entry.version());
    have_object = old_entry.type() == LogEntryType::kObject;
  }
  if (!have_object && !tombstone_if_missing) {
    return Status::kObjectNotFound;
  }
  const Version version = floor + 1;
  auto ref = log_.AppendTombstone(table, hash, key, version);
  if (!ref.ok()) {
    return ref.status();
  }
  if (old_ref.valid()) {
    log_.MarkDead(old_ref);
  }
  if (have_object) {
    // The object is gone; the tombstone lives only in the recovery log (the
    // backups keep their replica of it), so it is immediately dead in
    // memory and the hash-table entry is dropped.
    hash_table_.Remove(hash);
    log_.MarkDead(*ref);
  } else {
    // Deleting a record that has not arrived yet (migration target, §3):
    // keep the tombstone *live and referenced* so a later-arriving older
    // copy loses the version comparison instead of resurrecting.
    hash_table_.Insert(hash, *ref);
  }
  version_horizon_ = std::max(version_horizon_, version);
  if (out_ref != nullptr) {
    *out_ref = *ref;
  }
  return version;
}

bool ObjectManager::Replay(const LogEntryView& entry, SideLog* side_log) {
  assert(entry.type() == LogEntryType::kObject || entry.type() == LogEntryType::kTombstone);
  const KeyHash hash = entry.key_hash();
  const LogRef old_ref = hash_table_.Lookup(hash);
  if (old_ref.valid()) {
    LogEntryView existing;
    if (log_.Read(old_ref, &existing) && existing.version() >= entry.version()) {
      return false;  // Local copy is as new or newer; drop the stale record.
    }
  }
  // The entry was validated where it was parsed (ReadEntry), so its bytes
  // go in verbatim: the same header, key, value, version and checksum a
  // re-serialization would write, without a second checksum pass.
  ROCKSTEADY_DCHECK(ComputeEntryChecksum(entry.header, entry.key, entry.value) ==
                    entry.header.checksum);
  // A tombstone stays referenced too: replay is order-free, so an older
  // copy of the object may arrive *after* its tombstone and must lose the
  // version comparison.
  Result<LogRef> ref =
      side_log != nullptr ? side_log->AppendSerialized(entry) : log_.AppendSerialized(entry);
  if (!ref.ok()) {
    return false;
  }
  hash_table_.Insert(hash, *ref);
  if (old_ref.valid()) {
    log_.MarkDead(old_ref);
  }
  version_horizon_ = std::max(version_horizon_, entry.version());
  return true;
}

ObjectManager::ReplayTally ObjectManager::ReplayRecords(std::span<const uint8_t> records,
                                                       SideLog* side_log,
                                                       const ReplayFilter& accept) {
  ReplayTally tally;
  WalkEntries(records, [&](size_t offset, const LogEntryView& entry) {
    const size_t length = entry.header.TotalLength();
    // Software pipeline: peek the next record's header (cheap fixed prefix,
    // no checksum) and prefetch its hash bucket so the next Replay's random
    // probe overlaps this one's append.
    const size_t next = offset + length;
    if (next + sizeof(LogEntryHeader) <= records.size()) {
      LogEntryHeader peek;
      std::memcpy(&peek, records.data() + next, sizeof(peek));
      hash_table_.PrefetchBucket(peek.key_hash);
    }
    if (!accept || accept(offset, entry)) {
      Replay(entry, side_log);
      tally.records++;
      tally.bytes += length;
    }
    return true;
  });
  return tally;
}

size_t ObjectManager::DropSideLogEntries(const SideLog& side_log) {
  std::vector<uint32_t> segment_ids;
  segment_ids.reserve(side_log.segments().size());
  for (const auto& segment : side_log.segments()) {
    segment_ids.push_back(segment->id());
  }
  return hash_table_.RemoveIf([&](KeyHash, LogRef ref) {
    for (uint32_t id : segment_ids) {
      if (ref.segment_id() == id) {
        return true;
      }
    }
    return false;
  });
}

ObjectManager::PullBatch ObjectManager::PullRange(TableId table, KeyHash start_hash,
                                                  KeyHash end_hash, Version min_version,
                                                  size_t cursor, size_t end_bucket,
                                                  size_t budget_bytes) const {
  PullBatch batch;
  // Sized for the budget up front; one bucket's overshoot grows it once, and
  // Finish() trims it to the bytes used.
  ByteSliceBuilder out(budget_bytes);
  batch.next_cursor = ScanRange(
      hash_table_, log_, table, start_hash, end_hash, cursor, end_bucket,
      [&](const LogEntryView& entry) {
        // Versions at or below min_version are unchanged since the last
        // delta round.
        if (entry.type() == LogEntryType::kObject && entry.version() > min_version) {
          out.Append(entry.raw, entry.header.TotalLength());
          batch.record_count++;
        }
      },
      [&] { return out.size() < budget_bytes; });
  batch.records = out.Finish();
  batch.done = batch.next_cursor >= end_bucket;
  return batch;
}

size_t ObjectManager::DropTabletEntries(TableId table, KeyHash start_hash, KeyHash end_hash) {
  // Bucket index is the hash's top bits, so only the range's buckets can
  // hold its entries; they are visited (and removed) in table order.
  return hash_table_.RemoveIf(
      [&](KeyHash hash, LogRef ref) {
        if (hash < start_hash || hash > end_hash) {
          return false;
        }
        LogEntryView entry;
        if (!log_.Read(ref, &entry) || entry.table_id() != table) {
          return false;
        }
        log_.MarkDead(ref, entry);
        return true;
      },
      hash_table_.BucketOf(start_hash), hash_table_.BucketOf(end_hash) + 1, &log_);
}

uint64_t ObjectManager::EstimateRangeBytes(TableId table, KeyHash start_hash,
                                           KeyHash end_hash) const {
  uint64_t bytes = 0;
  ScanRange(
      hash_table_, log_, table, start_hash, end_hash, hash_table_.BucketOf(start_hash),
      hash_table_.BucketOf(end_hash) + 1,
      [&](const LogEntryView& entry) {
        if (entry.type() == LogEntryType::kObject) {
          bytes += entry.header.TotalLength();
        }
      },
      [] { return true; });
  return bytes;
}

size_t ObjectManager::RunCleaner(size_t max_segments) { return cleaner_.CleanOnce(max_segments); }

size_t ObjectManager::RunEmergencyCleaner(size_t max_segments) {
  return cleaner_.EmergencyClean(max_segments);
}

void ObjectManager::AuditInvariants(AuditReport* report) const {
  log_.AuditInvariants(report);
  hash_table_.AuditInvariants(report, &log_);
  tablets_.AuditInvariants(report);
  hash_table_.ForEach([&](KeyHash hash, LogRef ref) {
    LogEntryView entry;
    if (!log_.Read(ref, &entry)) {
      return;  // Already reported by the hash-table audit.
    }
    if (entry.version() > version_horizon_) {
      report->Fail("objects: hash %llx carries version %llu above horizon %llu",
                   static_cast<unsigned long long>(hash),
                   static_cast<unsigned long long>(entry.version()),
                   static_cast<unsigned long long>(version_horizon_));
    }
  });
}

}  // namespace rocksteady
