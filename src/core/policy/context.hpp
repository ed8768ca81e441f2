// Shared state handed to prefetching policies each access period.
//
// The simulator owns the caches, timing model and estimators; policies
// receive them by reference through this context plus a metrics sink for
// the instrumentation the paper's figures need.  `next_block` exposes the
// next reference, when the driver knows it, for the oracle policy
// (perfect-selector, Section 9.5); honest policies never read it.
#pragma once

#include <cstdint>
#include <optional>

#include "cache/buffer_cache.hpp"
#include "cache/disk_model.hpp"
#include "cache/stack_distance.hpp"
#include "core/costben/estimator.hpp"
#include "core/costben/timing_model.hpp"
#include "trace/record.hpp"
#include "util/phase.hpp"

namespace pfp::core::policy {

using trace::BlockId;

/// Counters written by policies; the simulator folds them into its
/// per-run metrics.  Each maps to a specific paper exhibit (noted).
struct PolicyMetrics {
  std::uint64_t prefetches_issued = 0;       ///< Fig 8 / Fig 11 numerator
  std::uint64_t obl_prefetches_issued = 0;   ///< one-block-lookahead share
  std::uint64_t tree_prefetches_issued = 0;  ///< tree-predicted share
  double sum_prefetch_probability = 0.0;     ///< Fig 10 numerator

  std::uint64_t candidates_chosen = 0;          ///< Fig 7 denominator
  std::uint64_t candidates_already_cached = 0;  ///< Fig 7 numerator

  std::uint64_t prefetch_ejections = 0;  ///< prefetched, ejected unused
  std::uint64_t demand_ejections = 0;

  std::uint64_t predictable = 0;           ///< Table 2 numerator
  std::uint64_t predictable_uncached = 0;  ///< Fig 14 numerator

  std::uint64_t lvc_opportunities = 0;  ///< Table 3 denominator
  std::uint64_t lvc_followed = 0;       ///< Table 3 numerator
  std::uint64_t lvc_checks = 0;         ///< Fig 16 denominator
  std::uint64_t lvc_cached = 0;         ///< Fig 16 numerator

  std::uint64_t tree_nodes = 0;  ///< live nodes at end of run (Sec 9.3)
  std::uint64_t tree_bytes = 0;  ///< paper's 40 B/node accounting
};

struct Context {
  cache::BufferCache& cache;
  /// Disk service model: prefetch issuers submit their reads here and
  /// stamp PrefetchEntry::completion_ms with the returned time.
  cache::DiskArray& disks;
  const costben::TimingParams& timing;
  costben::Estimators& estimators;
  cache::StackDistanceEstimator& stack;
  PolicyMetrics& metrics;
  std::uint64_t period = 0;
  /// Simulator virtual time at the start of this access period (ms).
  double now_ms = 0.0;
  /// The reference after the one being processed, if the driver knows
  /// it (oracle policies only).
  std::optional<BlockId> next_block{};
  /// Phase-latency stopwatch (docs/observability.md); policies stamp
  /// stage boundaries via util::phase_mark.  Null when the driver is not
  /// instrumented; never influences any decision.
  util::PhaseStopwatch* phases = nullptr;
};

}  // namespace pfp::core::policy
