// Counting replacement for the global operator new (alloc_count.cc), behind
// the traced run's sim.allocs_per_event.
#ifndef PERFBENCH_ALLOC_COUNT_H_
#define PERFBENCH_ALLOC_COUNT_H_

#include <cstdint>

namespace perfbench {

// Resets the count and starts (or stops) counting.
void CountAllocations(bool on);
// operator new calls since counting last started.
uint64_t Allocations();

}  // namespace perfbench

#endif  // PERFBENCH_ALLOC_COUNT_H_
