// Open-addressed hash map keyed on uint64_t — the RPC layer's replacement
// for node-based maps on the hot path.
//
// std::map / std::unordered_map allocate one node per entry and chase a
// pointer per probe; the RPC pending table and the fault injector's
// per-link tables are touched on every message, so that churn is
// a measurable slice of per-event cost. FlatMap64 keeps keys, values, and a
// one-byte state array in three flat allocations, probes linearly, and
// reuses erased slots via tombstones (rehash drops them).
//
// Determinism: the map deliberately exposes NO iteration — lookup, insert,
// and erase only. Traversal order of an open-addressed table depends on
// insertion history in ways that are easy to misuse; every current client
// (rpc_system, fault_injector) is lookup-only, and keeping it that way is
// what makes this swap trace-hash-neutral. Key 0 is a legal key (call_ids
// start at 0), hence the state bytes instead of a sentinel empty key.
#ifndef ROCKSTEADY_SRC_COMMON_FLAT_MAP_H_
#define ROCKSTEADY_SRC_COMMON_FLAT_MAP_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "src/common/dcheck.h"
#include "src/common/hash.h"

namespace rocksteady {

template <typename V>
class FlatMap64 {
 public:
  FlatMap64() { Rehash(kMinCapacity); }

  FlatMap64(const FlatMap64&) = delete;
  FlatMap64& operator=(const FlatMap64&) = delete;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // Returns the value for `key`, or nullptr. Never invalidated by other
  // Finds; invalidated by Insert/operator[] (rehash) and Erase.
  V* Find(uint64_t key) {
    const size_t slot = FindSlot(key);
    return slot != kNoSlot && states_[slot] == kFull ? &values_[slot] : nullptr;
  }
  const V* Find(uint64_t key) const {
    return const_cast<FlatMap64*>(this)->Find(key);
  }

  // Inserts a default-constructed value if absent; returns the value.
  V& operator[](uint64_t key) {
    MaybeGrow();
    size_t slot = ProbeForInsert(key);
    if (states_[slot] != kFull) {
      if (states_[slot] == kTombstone) {
        tombstones_--;
      }
      states_[slot] = kFull;
      keys_[slot] = key;
      values_[slot] = V{};
      size_++;
    }
    return values_[slot];
  }

  bool Erase(uint64_t key) {
    const size_t slot = FindSlot(key);
    if (slot == kNoSlot || states_[slot] != kFull) {
      return false;
    }
    states_[slot] = kTombstone;
    values_[slot] = V{};  // Release held resources now, not at rehash.
    size_--;
    tombstones_++;
    return true;
  }

 private:
  enum : uint8_t { kEmpty = 0, kTombstone = 1, kFull = 2 };
  static constexpr size_t kMinCapacity = 16;
  static constexpr size_t kNoSlot = ~size_t{0};

  // Returns the slot holding `key`, or kNoSlot. Linear probe from the mixed
  // hash; tombstones keep probing, empty stops.
  size_t FindSlot(uint64_t key) const {
    size_t slot = static_cast<size_t>(Mix64(key)) & mask_;
    while (true) {
      if (states_[slot] == kEmpty) {
        return kNoSlot;
      }
      if (states_[slot] == kFull && keys_[slot] == key) {
        return slot;
      }
      slot = (slot + 1) & mask_;
    }
  }

  // Returns the slot where `key` lives or should be inserted (first
  // tombstone on the probe path if the key is absent).
  size_t ProbeForInsert(uint64_t key) const {
    size_t slot = static_cast<size_t>(Mix64(key)) & mask_;
    size_t first_tombstone = kNoSlot;
    while (true) {
      if (states_[slot] == kEmpty) {
        return first_tombstone != kNoSlot ? first_tombstone : slot;
      }
      if (states_[slot] == kTombstone) {
        if (first_tombstone == kNoSlot) {
          first_tombstone = slot;
        }
      } else if (keys_[slot] == key) {
        return slot;
      }
      slot = (slot + 1) & mask_;
    }
  }

  void MaybeGrow() {
    // Keep full + tombstone occupancy under 3/4 so probes stay short.
    if ((size_ + tombstones_ + 1) * 4 >= capacity_ * 3) {
      size_t target = capacity_;
      // Only enlarge when live entries need it; a tombstone-heavy table
      // rehashes at the same capacity to sweep them out.
      if ((size_ + 1) * 4 >= capacity_ * 2) {
        target = capacity_ * 2;
      }
      Rehash(target);
    }
  }

  void Rehash(size_t new_capacity) {
    auto old_keys = std::move(keys_);
    auto old_values = std::move(values_);
    auto old_states = std::move(states_);
    const size_t old_capacity = capacity_;

    capacity_ = new_capacity;
    mask_ = capacity_ - 1;
    keys_ = std::make_unique<uint64_t[]>(capacity_);
    values_ = std::make_unique<V[]>(capacity_);
    states_ = std::make_unique<uint8_t[]>(capacity_);  // Zeroed = kEmpty.
    tombstones_ = 0;

    for (size_t i = 0; i < old_capacity; i++) {
      if (old_states[i] != kFull) {
        continue;
      }
      size_t slot = static_cast<size_t>(Mix64(old_keys[i])) & mask_;
      while (states_[slot] == kFull) {
        slot = (slot + 1) & mask_;
      }
      states_[slot] = kFull;
      keys_[slot] = old_keys[i];
      values_[slot] = std::move(old_values[i]);
    }
  }

  size_t capacity_ = 0;
  size_t mask_ = 0;
  size_t size_ = 0;
  size_t tombstones_ = 0;
  std::unique_ptr<uint64_t[]> keys_;
  std::unique_ptr<V[]> values_;
  std::unique_ptr<uint8_t[]> states_;
};

// Packs a directed (from, to) link into a FlatMap64 key.
inline constexpr uint64_t PackLink(uint32_t from, uint32_t to) {
  return (static_cast<uint64_t>(from) << 32) | to;
}

}  // namespace rocksteady

#endif  // ROCKSTEADY_SRC_COMMON_FLAT_MAP_H_
