#include "alloc_probe.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::size_t> g_largest{0};
}  // namespace

void* operator new(std::size_t size) {
  std::size_t seen = g_largest.load(std::memory_order_relaxed);
  while (size > seen &&
         !g_largest.compare_exchange_weak(seen, size,
                                          std::memory_order_relaxed)) {
  }
  if (size == 0) {
    size = 1;
  }
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace pfp::testing {

void reset_largest_allocation() noexcept {
  g_largest.store(0, std::memory_order_relaxed);
}

std::size_t largest_allocation() noexcept {
  return g_largest.load(std::memory_order_relaxed);
}

}  // namespace pfp::testing
