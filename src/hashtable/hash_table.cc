#include "src/hashtable/hash_table.h"

#include <algorithm>
#include <cassert>
#include <new>

namespace rocksteady {

HashTable::HashTable(int log2_buckets) {
  assert(log2_buckets >= 1 && log2_buckets < 63);
  shift_ = 64 - log2_buckets;
  num_buckets_ = size_t{1} << log2_buckets;
  buckets_.reset(static_cast<Bucket*>(std::calloc(num_buckets_, sizeof(Bucket))));
  if (buckets_ == nullptr) {
    throw std::bad_alloc();
  }
}

HashTable::~HashTable() {
  if (overflow_buckets_ == 0) {
    return;  // Nothing to free; and the walk would fault in every page.
  }
  for (size_t index = 0; index < num_buckets_; index++) {
    Bucket* bucket = buckets_[index].next;
    while (bucket != nullptr) {
      Bucket* next = bucket->next;
      delete bucket;
      bucket = next;
    }
  }
}

HashTable::Bucket* HashTable::FindSlot(KeyHash hash, size_t* slot) const {
  const auto* bucket = &buckets_[BucketOf(hash)];
  while (bucket != nullptr) {
    for (size_t i = 0; i < bucket->count; i++) {
      if (bucket->hashes[i] == hash) {
        *slot = i;
        return const_cast<Bucket*>(bucket);
      }
    }
    bucket = bucket->next;
  }
  return nullptr;
}

bool HashTable::Insert(KeyHash hash, LogRef ref) {
  size_t slot;
  if (Bucket* bucket = FindSlot(hash, &slot)) {
    bucket->refs[slot] = ref;
    return false;
  }
  Bucket* bucket = &buckets_[BucketOf(hash)];
  while (bucket->count == kSlotsPerBucket) {
    if (bucket->next == nullptr) {
      bucket->next = new Bucket();  // Value-initialised: empty.
      overflow_buckets_++;
    }
    bucket = bucket->next;
  }
  bucket->hashes[bucket->count] = hash;
  bucket->refs[bucket->count] = ref;
  bucket->count++;
  size_++;
  return true;
}

LogRef HashTable::Lookup(KeyHash hash) const {
  size_t slot;
  if (const Bucket* bucket = FindSlot(hash, &slot)) {
    return bucket->refs[slot];
  }
  return LogRef();
}

bool HashTable::Remove(KeyHash hash) {
  size_t slot;
  Bucket* bucket = FindSlot(hash, &slot);
  if (bucket == nullptr) {
    return false;
  }
  // Fill the hole from the tail of this bucket's local slots, then trim
  // empty overflow buckets lazily (they stay allocated; count is truth).
  Bucket* tail = bucket;
  while (tail->next != nullptr && tail->next->count > 0) {
    tail = tail->next;
  }
  bucket->hashes[slot] = tail->hashes[tail->count - 1];
  bucket->refs[slot] = tail->refs[tail->count - 1];
  tail->count--;
  size_--;
  return true;
}

bool HashTable::Replace(KeyHash hash, LogRef expected, LogRef desired) {
  size_t slot;
  Bucket* bucket = FindSlot(hash, &slot);
  if (bucket == nullptr || !(bucket->refs[slot] == expected)) {
    return false;
  }
  bucket->refs[slot] = desired;
  return true;
}

void HashTable::PrefetchEntries(size_t index, const Log& log) const {
  const Bucket& bucket = buckets_[index];
  for (size_t i = 0; i < bucket.count; i++) {
    log.PrefetchEntry(bucket.refs[i]);
  }
}

size_t HashTable::ScanBuckets(size_t end_bucket, size_t cursor,
                              const std::function<void(KeyHash, LogRef)>& visit,
                              const std::function<bool()>& bucket_done, const Log* log) const {
  end_bucket = std::min(end_bucket, num_buckets_);
  while (cursor < end_bucket) {
    if (log != nullptr && cursor + kEntryLookahead < end_bucket) {
      PrefetchEntries(cursor + kEntryLookahead, *log);
    }
    if (cursor + kBucketLookahead < end_bucket) {
      PrefetchLines(&buckets_[cursor + kBucketLookahead], kBucketLines);
    }
    const Bucket* bucket = &buckets_[cursor];
    while (bucket != nullptr) {
      for (size_t i = 0; i < bucket->count; i++) {
        visit(bucket->hashes[i], bucket->refs[i]);
      }
      bucket = bucket->next;
    }
    cursor++;
    if (!bucket_done()) {
      break;
    }
  }
  return cursor;
}

void HashTable::ForEach(const std::function<void(KeyHash, LogRef)>& fn) const {
  ScanBuckets(num_buckets_, 0, fn, [] { return true; });
}

size_t HashTable::RemoveIf(const std::function<bool(KeyHash, LogRef)>& pred,
                           size_t first_bucket, size_t end_bucket, const Log* log) {
  // A bucket's doomed hashes are removed once the scan has visited its whole
  // chain (Remove() moves slots, which would confuse the walk), while the
  // bucket is still in cache. Remove() touches only its own bucket's chain,
  // so removing bucket by bucket in visit order leaves every slot where
  // removing all of them after the scan would.
  std::vector<KeyHash> doomed;
  size_t removed = 0;
  ScanBuckets(
      end_bucket, first_bucket,
      [&](KeyHash hash, LogRef ref) {
        if (pred(hash, ref)) {
          doomed.push_back(hash);
        }
      },
      [&] {
        for (KeyHash hash : doomed) {
          Remove(hash);
        }
        removed += doomed.size();
        doomed.clear();
        return true;
      },
      log);
  return removed;
}

void HashTable::AuditInvariants(AuditReport* report, const Log* log) const {
  size_t counted = 0;
  for (size_t index = 0; index < num_buckets_; index++) {
    const Bucket* previous = nullptr;
    for (const Bucket* bucket = &buckets_[index]; bucket != nullptr; bucket = bucket->next) {
      if (bucket->count > kSlotsPerBucket) {
        report->Fail("hashtable: bucket %zu slot count %u exceeds %zu", index, bucket->count,
                     kSlotsPerBucket);
        break;
      }
      if (previous != nullptr && previous->count < kSlotsPerBucket && bucket->count > 0) {
        report->Fail("hashtable: bucket %zu overflow chain not packed", index);
      }
      for (size_t i = 0; i < bucket->count; i++) {
        const KeyHash hash = bucket->hashes[i];
        counted++;
        if (BucketOf(hash) != index) {
          report->Fail("hashtable: hash %llx filed in bucket %zu, belongs in %zu",
                       static_cast<unsigned long long>(hash), index, BucketOf(hash));
        }
        const LogRef ref = bucket->refs[i];
        if (!ref.valid()) {
          report->Fail("hashtable: hash %llx maps to an invalid ref",
                       static_cast<unsigned long long>(hash));
        } else if (log != nullptr) {
          LogEntryView entry;
          if (!log->Read(ref, &entry)) {
            report->Fail("hashtable: hash %llx dangles (segment %u offset %u unresolvable)",
                         static_cast<unsigned long long>(hash), ref.segment_id(), ref.offset());
          } else if (entry.key_hash() != hash) {
            report->Fail("hashtable: hash %llx resolves to entry keyed %llx",
                         static_cast<unsigned long long>(hash),
                         static_cast<unsigned long long>(entry.key_hash()));
          }
        }
        // Duplicate scan within the remainder of this chain.
        size_t j = i + 1;
        for (const Bucket* rest = bucket; rest != nullptr; rest = rest->next, j = 0) {
          for (; j < rest->count; j++) {
            if (rest->hashes[j] == hash) {
              report->Fail("hashtable: duplicate entries for hash %llx in bucket %zu",
                           static_cast<unsigned long long>(hash), index);
            }
          }
        }
      }
      previous = bucket;
    }
  }
  if (counted != size_) {
    report->Fail("hashtable: size() reports %zu but %zu entries found", size_, counted);
  }
}

size_t HashTable::MaxChainLength() const {
  size_t longest = 0;
  for (size_t index = 0; index < num_buckets_; index++) {
    size_t length = 0;
    for (const Bucket* bucket = &buckets_[index]; bucket != nullptr; bucket = bucket->next) {
      length++;
    }
    longest = std::max(longest, length);
  }
  return longest;
}

}  // namespace rocksteady
