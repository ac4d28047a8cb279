#include "alloc_count.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocations{0};

}  // namespace

void CountAllocations(bool on) {
  if (on) {
    g_allocations.store(0, std::memory_order_relaxed);
  }
  g_counting.store(on, std::memory_order_relaxed);
}

uint64_t Allocations() { return g_allocations.load(std::memory_order_relaxed); }

}  // namespace perfbench

// Sized, array and nothrow forms fall back to these two by default.
void* operator new(std::size_t size) {
  if (perfbench::g_counting.load(std::memory_order_relaxed)) {
    perfbench::g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
