// Phase-timing primitives for the per-access state machine.
//
// The observability layer (src/obs/) aggregates per-phase latencies of
// the six engine stages (lookup -> predictor update -> enumeration ->
// cost-benefit -> issue -> eviction).  The phase ids, the atomic bucket
// cells and the stopwatch that stamps transitions live here — the lowest
// layer — because core policies mark transitions inside their own code
// and core must not depend on obs (layering: obs includes util only,
// core includes util, engine includes both; see docs/observability.md).
//
// Phase timing is opt-in at runtime: an unarmed stopwatch costs one
// predictable branch per mark and reads no clock.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>

#include "util/thread_annotations.hpp"

namespace pfp::util {

/// The six stages of the engine's per-access state machine, in pipeline
/// order.  Phase-timer placement is documented in docs/observability.md.
enum class EnginePhase : std::uint8_t {
  kLookup = 0,       ///< buffer-cache probe + hit/miss bookkeeping
  kPredictorUpdate,  ///< LZ tree parse step + Table 2/3 instrumentation
  kEnumeration,      ///< candidate enumeration below the parse position
  kCostBenefit,      ///< Eq. 1-14 benefit tabulation, filter and sort
  kIssue,            ///< prefetch admission loop + estimator end-of-period
  kEviction,         ///< demand-miss reclaim + admission
};

inline constexpr std::size_t kEnginePhaseCount = 6;

/// Stable short names, indexable by static_cast<size_t>(phase); used as
/// Prometheus label values and Chrome trace categories.
inline constexpr const char* kEnginePhaseNames[kEnginePhaseCount] = {
    "lookup",       "predictor_update", "enumeration",
    "cost_benefit", "issue",            "eviction",
};

/// Log2 latency buckets: bucket i counts durations with
/// bit_width(ns) == i, i.e. [2^(i-1), 2^i) ns, bucket 0 counts 0 ns.
/// 32 buckets cap the histogram at ~2.1 s — far beyond any phase.
inline constexpr std::size_t kPhaseBucketCount = 32;

/// Live per-phase accumulation cells: sample count, total nanoseconds and
/// fixed log2-bucket counts per phase.  Single-writer (the engine
/// thread); relaxed atomics make concurrent reads from a stats scraper
/// well-defined.  Snapshot consistency across cells is the caller's job
/// (obs::EngineObs wraps reads in a seqlock-style version gate).
class PhaseCells {
 public:
  /// The calling thread declares itself the unique writer (zero-cost
  /// trust declaration for the thread-safety analysis; the engine thread
  /// owns the stopwatch that feeds these cells).
  void assert_writer() const noexcept PFP_ASSERT_CAPABILITY(writer_role) {}

  void add(EnginePhase phase, std::uint64_t ns) noexcept
      PFP_REQUIRES(writer_role) {
    const auto p = static_cast<std::size_t>(phase);
    std::size_t bucket = 0;
    std::uint64_t x = ns;
    while (x != 0) {  // bit_width without <bit> (keep the header light)
      ++bucket;
      x >>= 1;
    }
    if (bucket >= kPhaseBucketCount) {
      bucket = kPhaseBucketCount - 1;  // clamp into the overflow bucket
    }
    bump(count_[p]);
    bump(total_ns_[p], ns);
    bump(buckets_[p][bucket]);
  }

  [[nodiscard]] std::uint64_t count(std::size_t phase) const noexcept {
    return count_[phase].load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t total_ns(std::size_t phase) const noexcept {
    return total_ns_[phase].load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bucket(std::size_t phase,
                                     std::size_t i) const noexcept {
    return buckets_[phase][i].load(std::memory_order_relaxed);
  }

  /// Writer role capability (zero-size; public so capability expressions
  /// can name it, see thread_annotations.hpp).
  ThreadRole writer_role;

 private:
  // Single-writer increment: a relaxed load+store pair is cheaper than a
  // fetch_add and equivalent when only one thread ever writes.
  static void bump(std::atomic<std::uint64_t>& cell,
                   std::uint64_t delta = 1) noexcept {
    cell.store(cell.load(std::memory_order_relaxed) + delta,
               std::memory_order_relaxed);
  }

  // writers: the single writer_role holder (the engine thread's
  // stopwatch)  readers: any stats-scraper thread (PhaseTiming::sample)
  std::atomic<std::uint64_t> count_[kEnginePhaseCount] = {};
  std::atomic<std::uint64_t> total_ns_[kEnginePhaseCount] = {};
  std::atomic<std::uint64_t> buckets_[kEnginePhaseCount][kPhaseBucketCount] =
      {};
};

/// Sequential-phase stopwatch: one clock read per phase boundary instead
/// of two per phase.  start() stamps the origin; each mark(p) charges the
/// time since the previous stamp to phase p.  Disarmed (null cells) it
/// costs one predictable branch per call.
class PhaseStopwatch {
 public:
  void arm(PhaseCells* cells) noexcept { cells_ = cells; }
  [[nodiscard]] bool armed() const noexcept { return cells_ != nullptr; }

  void start() noexcept {
    if (cells_ != nullptr) {
      last_ = now_ns();
    }
  }

  void mark(EnginePhase phase) noexcept {
    if (cells_ == nullptr) {
      return;
    }
    // The stopwatch has exactly one owner (the engine thread), so its
    // marks are the cells' single writer by construction.
    cells_->assert_writer();
    const std::uint64_t now = now_ns();
    cells_->add(phase, now - last_);
    last_ = now;
  }

 private:
  static std::uint64_t now_ns() noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  PhaseCells* cells_ = nullptr;
  std::uint64_t last_ = 0;
};

/// Instrumentation stamp used by core policies: `phase_mark(ctx.phases,
/// EnginePhase::kEnumeration)`.  Null-safe so uninstrumented drivers pass
/// nullptr.
inline void phase_mark(PhaseStopwatch* stopwatch, EnginePhase phase) noexcept {
  if (stopwatch != nullptr) {
    stopwatch->mark(phase);
  }
}

}  // namespace pfp::util
