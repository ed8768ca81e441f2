// Per-run metrics and the derived quantities the paper reports.
//
// The engine accumulates them per access; the sim drivers only read them.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "core/policy/context.hpp"

namespace pfp::engine {

/// Raw counters accumulated over a run plus derived accessors matching
/// the paper's figures/tables.  All rates are fractions in [0, 1];
/// callers format them as percentages.
struct Metrics {
  std::uint64_t accesses = 0;
  std::uint64_t demand_hits = 0;
  std::uint64_t prefetch_hits = 0;
  std::uint64_t misses = 0;

  /// Simulated elapsed time (ms) under the Section 3 timing model.
  double elapsed_ms = 0.0;
  /// Total CPU stall time (ms) included in elapsed_ms.
  double stall_ms = 0.0;
  /// Time disk requests spent queued behind other requests (finite-disk
  /// configurations only; always 0 under the paper's infinite array).
  double disk_queue_delay_ms = 0.0;
  /// Total disk reads issued (demand fetches + prefetches).
  std::uint64_t disk_requests = 0;

  core::policy::PolicyMetrics policy;

  // --- derived -----------------------------------------------------------

  /// Miss rate in the combined demand + prefetch cache (Figure 6 y-axis).
  [[nodiscard]] double miss_rate() const;
  /// Fraction of accesses served by either cache.
  [[nodiscard]] double hit_rate() const { return 1.0 - miss_rate(); }
  /// Fraction of prefetched blocks that were referenced before ejection
  /// (Figure 9 / Figure 12 y-axis).
  [[nodiscard]] double prefetch_cache_hit_rate() const;
  /// Blocks prefetched per access period, the measured s (Fig 8 / 11).
  [[nodiscard]] double prefetches_per_access() const;
  /// Mean tree-assigned probability of prefetched blocks (Figure 10).
  [[nodiscard]] double mean_prefetch_probability() const;
  /// Fraction of chosen candidates already resident (Figure 7).
  [[nodiscard]] double candidates_cached_fraction() const;
  /// Prediction accuracy: predictable accesses / accesses (Table 2).
  [[nodiscard]] double prediction_accuracy() const;
  /// Of predictable accesses, fraction NOT already cached (Figure 14).
  [[nodiscard]] double predictable_uncached_fraction() const;
  /// Last-visited-child revisit rate (Table 3).
  [[nodiscard]] double lvc_revisit_rate() const;
  /// Fraction of last-visited children already cached (Figure 16).
  [[nodiscard]] double lvc_cached_fraction() const;
  /// Extra disk traffic from prefetching, relative to demand fetches.
  [[nodiscard]] double prefetch_traffic_ratio() const;

  /// Multi-line summary for logs/examples.
  [[nodiscard]] std::string summary() const;
};

/// Deterministic merge of per-shard metrics: every counter and
/// accumulator is folded in shard-index order, so the result depends only
/// on the per-shard values, never on which shard finished first
/// (order-independence is proven by test).  Summed elapsed_ms/stall_ms
/// are aggregate per-shard virtual time — shards run concurrently, so
/// wall-clock-style readings should use the max over shards instead.
[[nodiscard]] Metrics merge_metrics(std::span<const Metrics> shards);

}  // namespace pfp::engine
