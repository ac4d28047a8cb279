// Software prefetch that the optimizer keeps.
//
// GCC 12 at -O3 deleted a loop whose body held only __builtin_prefetch
// calls (the walk over a bucket's refs in HashTable::ScanBuckets), so the
// build emitted no entry prefetch at all. An asm volatile instruction
// cannot be dropped. A prefetch never faults, so a line past the end of an
// allocation is harmless; its address is computed as an integer, not by
// pointer arithmetic past the allocation.
#ifndef ROCKSTEADY_SRC_COMMON_PREFETCH_H_
#define ROCKSTEADY_SRC_COMMON_PREFETCH_H_

#include <cstddef>
#include <cstdint>

namespace rocksteady {

inline constexpr size_t kCacheLineBytes = 64;

// Hints that the cache line holding `address` is about to be read.
inline void PrefetchLine(const void* address) {
#if defined(__x86_64__) || defined(__i386__)
  asm volatile("prefetcht0 (%0)" : : "r"(address));
#elif defined(__aarch64__)
  asm volatile("prfm pldl1keep, [%0]" : : "r"(address));
#else
  __builtin_prefetch(address, 0, 3);
#endif
}

// Prefetches the `lines` cache lines starting at the one holding `address`.
inline void PrefetchLines(const void* address, size_t lines) {
  const uintptr_t first = reinterpret_cast<uintptr_t>(address);
  for (size_t i = 0; i < lines; i++) {
    PrefetchLine(reinterpret_cast<const void*>(first + i * kCacheLineBytes));
  }
}

}  // namespace rocksteady

#endif  // ROCKSTEADY_SRC_COMMON_PREFETCH_H_
