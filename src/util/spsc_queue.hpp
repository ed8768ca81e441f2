// Bounded single-producer / single-consumer ring buffer.
//
// The sharded engine hands each shard worker its reference stream through
// one of these: exactly one thread pushes and exactly one thread pops, so
// the only synchronization needed is an acquire/release pair on the two
// ring indices.  Both sides keep a cached copy of the opposite index so
// the steady state touches a single shared cache line per operation
// instead of two (the classic Rigtorp layout).
//
// The bulk operations (try_push_n / try_pop_n) move a contiguous run of
// values under a SINGLE release/acquire pair, which is what makes the
// batched shard hand-off pay: the per-element synchronization cost of a
// 256-record run is 1/256th of the push-one path's.
//
// The producer/consumer split is machine-checked: try_push requires the
// producer role capability and try_pop the consumer role (Clang
// -Wthread-safety; see src/util/thread_annotations.hpp).  The one thread
// playing each role declares it once with assert_producer() /
// assert_consumer(); any new call path that touches a side without its
// role fails the thread-safety CI leg.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/assert.hpp"
#include "util/thread_annotations.hpp"

namespace pfp::util {

/// Fixed-capacity SPSC FIFO over trivially copyable values.
///
/// Contract: try_push is called by one producer thread only and try_pop
/// by one consumer thread only; neither blocks.  Capacity is rounded up
/// to a power of two so index wrapping is a mask.
template <typename T>
class SpscQueue {
 public:
  explicit SpscQueue(std::size_t min_capacity) {
    std::size_t cap = 2;
    while (cap < min_capacity) {
      PFP_REQUIRE(cap <= (std::size_t{1} << 62));
      cap <<= 1;
    }
    buffer_.resize(cap);
    mask_ = cap - 1;
  }

  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  /// The calling thread declares itself the unique producer/consumer.
  /// Zero-cost trust declarations for the thread-safety analysis: call
  /// once per function (or thread loop) before using that side.
  void assert_producer() const noexcept PFP_ASSERT_CAPABILITY(producer_role) {}
  void assert_consumer() const noexcept PFP_ASSERT_CAPABILITY(consumer_role) {}

  /// Producer side.  Returns false when the ring is full.
  bool try_push(const T& value) PFP_REQUIRES(producer_role) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_cache_ > mask_) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail - head_cache_ > mask_) {
        return false;
      }
    }
    buffer_[tail & mask_] = value;
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Producer side, bulk: appends as many of `values` as currently fit,
  /// front-first, and publishes them all under ONE release store — the
  /// whole point of the slice hand-off (docs/perf.md, "Sharding").  The
  /// copy crosses the wrap seam in at most two
  /// contiguous segments.  Returns the number accepted (0 when full);
  /// partial acceptance is normal when the ring is nearly full, and the
  /// caller retries with the remaining suffix.
  std::size_t try_push_n(std::span<const T> values)
      PFP_REQUIRES(producer_role) {
    if (values.empty()) {
      return 0;
    }
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    std::size_t free = capacity() - static_cast<std::size_t>(
                                        tail - head_cache_);
    if (free < values.size()) {
      head_cache_ = head_.load(std::memory_order_acquire);
      free = capacity() - static_cast<std::size_t>(tail - head_cache_);
      if (free == 0) {
        return 0;
      }
    }
    const std::size_t n = std::min(values.size(), free);
    const std::size_t start = static_cast<std::size_t>(tail & mask_);
    const std::size_t first = std::min(n, capacity() - start);
    std::copy_n(values.data(), first, buffer_.data() + start);
    std::copy_n(values.data() + first, n - first, buffer_.data());
    tail_.store(tail + n, std::memory_order_release);
    return n;
  }

  /// Consumer side.  Returns false when the ring is empty.
  bool try_pop(T& out) PFP_REQUIRES(consumer_role) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head == tail_cache_) {
        return false;
      }
    }
    out = buffer_[head & mask_];
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side, bulk: pops up to `max` values into `out` under ONE
  /// acquire/release pair, crossing the wrap seam in at most two
  /// contiguous segments.  Returns the number popped (0 when empty).
  /// The cached tail is refreshed whenever it cannot satisfy a full run,
  /// so a worker draining in bulk sees everything already published.
  std::size_t try_pop_n(T* out, std::size_t max)
      PFP_REQUIRES(consumer_role) {
    if (max == 0) {
      return 0;
    }
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    std::size_t avail = static_cast<std::size_t>(tail_cache_ - head);
    if (avail < max) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      avail = static_cast<std::size_t>(tail_cache_ - head);
      if (avail == 0) {
        return 0;
      }
    }
    const std::size_t n = std::min(max, avail);
    const std::size_t start = static_cast<std::size_t>(head & mask_);
    const std::size_t first = std::min(n, capacity() - start);
    std::copy_n(buffer_.data() + start, first, out);
    std::copy_n(buffer_.data(), n - first, out + first);
    head_.store(head + n, std::memory_order_release);
    return n;
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return mask_ + 1; }

  /// Approximate occupancy, callable from any thread (the shard stats
  /// scraper reads it live for the queue gauge).  head_ is loaded FIRST:
  /// head only ever advances toward tail, so a head read that predates
  /// the tail read can only under-count.  The reverse order had a real
  /// bug: a pop landing between the two loads pushed head past the stale
  /// tail and the subtraction underflowed to ~2^64 (regression-tested in
  /// tests/util/spsc_queue_test.cpp).  The result can still transiently
  /// exceed the true occupancy (pushes after the head read count, pops
  /// after it don't), which is fine for a gauge.
  [[nodiscard]] std::size_t size() const noexcept {
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    return static_cast<std::size_t>(tail - head);
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }

  /// Role capabilities (zero-size, public so capability expressions can
  /// name them; see thread_annotations.hpp).
  ThreadRole producer_role;
  ThreadRole consumer_role;

 private:
  std::vector<T> buffer_;
  std::uint64_t mask_ = 0;
  // writers: consumer thread (try_pop)  readers: both sides + scrapers
  alignas(64) std::atomic<std::uint64_t> head_{0};  ///< next pop slot
  // writers: producer thread (try_push)  readers: both sides + scrapers
  alignas(64) std::atomic<std::uint64_t> tail_{0};  ///< next push slot
  // writers: producer thread  readers: producer thread
  alignas(64) std::uint64_t head_cache_
      PFP_GUARDED_BY(producer_role) = 0;  ///< producer's view of head_
  // writers: consumer thread  readers: consumer thread
  alignas(64) std::uint64_t tail_cache_
      PFP_GUARDED_BY(consumer_role) = 0;  ///< consumer's view of tail_
};

}  // namespace pfp::util
