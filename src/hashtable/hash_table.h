// The master's primary-key index: key hash -> log reference.
//
// Modeled on RAMCloud's hash table: a power-of-two array of cache-line
// buckets, each holding a fixed number of (hash, ref) slots plus an overflow
// chain. The bucket index is the *top* bits of the key hash, so a contiguous
// range of the key-hash space is a contiguous range of buckets — exactly the
// property Rocksteady's Pull partitioning relies on (§3.1.1: concurrent
// Pulls work on "disjoint regions of the source's key hash space (and,
// consequently, disjoint regions of the source's hash table)").
//
// Scans are bucket-granular: a Pull consumes whole buckets, so concurrent
// mutation of *other* tables' entries never skips or double-visits a
// migrating entry.
#ifndef ROCKSTEADY_SRC_HASHTABLE_HASH_TABLE_H_
#define ROCKSTEADY_SRC_HASHTABLE_HASH_TABLE_H_

#include <array>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <vector>

#include "src/common/prefetch.h"
#include "src/common/types.h"
#include "src/log/log.h"

namespace rocksteady {

class HashTable {
 public:
  // 2^log2_buckets buckets. RAMCloud sizes ~2 entries per bucket on average;
  // experiment drivers size accordingly.
  explicit HashTable(int log2_buckets);
  ~HashTable();

  HashTable(const HashTable&) = delete;
  HashTable& operator=(const HashTable&) = delete;

  // Inserts or replaces the mapping for `hash`. Returns true if a new entry
  // was created, false if an existing one was replaced.
  bool Insert(KeyHash hash, LogRef ref);

  // Returns the mapping, or an invalid LogRef if absent.
  LogRef Lookup(KeyHash hash) const;

  bool Remove(KeyHash hash);

  // Compare-and-swap for the log cleaner: updates the mapping only if it
  // still equals `expected`. Returns true on success.
  bool Replace(KeyHash hash, LogRef expected, LogRef desired);

  size_t size() const { return size_; }
  size_t num_buckets() const { return num_buckets_; }

  size_t BucketOf(KeyHash hash) const { return static_cast<size_t>(hash >> shift_); }

  // Hints the cache that the bucket for `hash` is about to be probed. Batch
  // callers (priority pulls, replay, table loads) software-pipeline:
  // prefetch a later hash while probing this one, hiding the random-access
  // miss the top-bits bucket index otherwise guarantees. Purely a hint — no
  // observable effect.
  void PrefetchBucket(KeyHash hash) const {
    PrefetchLines(&buckets_[BucketOf(hash)], kBucketLines);
  }

  // Scan lookahead, in buckets. Before visiting bucket i a scan prefetches
  // bucket i + kBucketLookahead and, given a log, the log entries bucket
  // i + kEntryLookahead refers to; the bucket prefetch makes those refs
  // cached when read. 16 buckets is ~37 entries at the ~2.3 entries per
  // bucket drivers size for, enough misses in flight to hide DRAM latency
  // behind one entry's visit (a checksum and a copy). Measured with
  // bench/micro_primitives on a table larger than the cache: a pull scan
  // 380 -> 190 ns per record, a tablet drop 440 -> 230 ns; 8 and 32
  // measured alike (DESIGN.md "Memory-level parallelism").
  static constexpr size_t kEntryLookahead = 16;
  static constexpr size_t kBucketLookahead = 2 * kEntryLookahead;

  // Visits every entry of every bucket in [cursor, end_bucket). `visit` is
  // called per entry; after each fully-visited bucket `bucket_done` is
  // called and may return false to pause the scan. Returns the new cursor
  // (index of the next unvisited bucket). A visitor that reads the
  // entries passes their `log`, and the scan prefetches them (see
  // kEntryLookahead); visit order, pause points and the returned cursor
  // are the same as without.
  size_t ScanBuckets(size_t end_bucket, size_t cursor,
                     const std::function<void(KeyHash, LogRef)>& visit,
                     const std::function<bool()>& bucket_done,
                     const Log* log = nullptr) const;

  void ForEach(const std::function<void(KeyHash, LogRef)>& fn) const;

  // Removes all entries matching a predicate; returns how many were removed.
  // Used when aborting a half-replayed migration. Only buckets
  // [first_bucket, end_bucket) are visited: a predicate that can match only
  // a key-hash range passes that range's buckets.
  // A predicate that reads each entry passes the `log` it reads, so the
  // scan prefetches the entries ahead of it.
  size_t RemoveIf(const std::function<bool(KeyHash, LogRef)>& pred, size_t first_bucket = 0,
                  size_t end_bucket = SIZE_MAX, const Log* log = nullptr);

  // Longest overflow chain currently in the table (diagnostics/tests).
  size_t MaxChainLength() const;

  // Invariants: size accounting, every entry hashed into its own bucket, no
  // duplicate hashes, overflow chains packed (a non-full bucket is never
  // followed by a non-empty one — Remove() backfills from the tail). With a
  // `log`, additionally: every ref is valid, resolves to a live entry, and
  // that entry's key hash matches the table's key (no dangling log
  // pointers).
  void AuditInvariants(AuditReport* report, const Log* log = nullptr) const;

 private:
  static constexpr size_t kSlotsPerBucket = 8;

  // All-zero bytes are an empty bucket (count 0, next null), and Bucket is
  // an implicit-lifetime aggregate, so the bucket array is calloc'd memory
  // used as-is: pages of buckets nothing hashes into are never touched and
  // cost no RSS. `next` is a raw owning pointer for the same reason (a
  // unique_ptr would need constructing in place); ~HashTable frees chains.
  struct Bucket {
    std::array<KeyHash, kSlotsPerBucket> hashes;
    std::array<LogRef, kSlotsPerBucket> refs;
    uint8_t count;
    Bucket* next;
  };
  static_assert(sizeof(Bucket) == 144);

  // sizeof(Bucket) is 144 bytes, so from any 16-byte-aligned start it
  // touches at most three cache lines.
  static constexpr size_t kBucketLines = 3;

  struct FreeDeleter {
    void operator()(Bucket* p) const { std::free(p); }
  };

  Bucket* FindSlot(KeyHash hash, size_t* slot) const;

  // Prefetches the entries bucket `index` (not its overflow chain) refers
  // to.
  void PrefetchEntries(size_t index, const Log& log) const;

  int shift_;
  size_t size_ = 0;
  size_t num_buckets_;
  std::unique_ptr<Bucket[], FreeDeleter> buckets_;
  size_t overflow_buckets_ = 0;  // Allocated chain buckets (~HashTable skips the walk at 0).
};

}  // namespace rocksteady

#endif  // ROCKSTEADY_SRC_HASHTABLE_HASH_TABLE_H_
