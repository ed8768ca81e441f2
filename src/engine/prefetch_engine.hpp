// The per-access prefetching state machine (cache lookup -> predictor
// update -> candidate enumeration -> cost-benefit decision -> prefetch
// issue -> eviction), extracted from the trace-replay harness so hosts
// can embed it.
//
// One engine owns one partitioned buffer cache, one policy instance and
// one set of cost-benefit estimators.  access_many() is its only way in:
// a host that discovers its stream one reference at a time passes a
// one-element span, a replay passes the whole trace.
//
//   engine::PrefetchEngine eng(config);
//   for (;;) {
//     const trace::BlockId block = next_block();
//     const auto r = eng.access_many({&block, 1});
//     if (r.misses != 0) { ... }
//   }
//
// sim::Simulator is a thin replay shell over this class; the per-access
// loop lives here so replay throughput and embedded behaviour can never
// drift apart.
// Layering: engine/ sits between core/ and sim/ and must not include
// sim/ (enforced by scripts/lint/check_conventions.py).
#pragma once

#include <iosfwd>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "cache/buffer_cache.hpp"
#include "cache/disk_model.hpp"
#include "cache/stack_distance.hpp"
#include "core/costben/estimator.hpp"
#include "core/policy/factory.hpp"
#include "engine/config.hpp"
#include "engine/metrics.hpp"
#include "obs/engine_obs.hpp"
#include "trace/record.hpp"
#include "util/phase.hpp"

namespace pfp::engine {

/// Aggregate of one access_many() batch.
struct BatchResult {
  std::uint64_t demand_hits = 0;
  std::uint64_t prefetch_hits = 0;
  std::uint64_t misses = 0;
  /// Modeled latency of the batch under the timing model (ms): T_hit per
  /// access, plus residual prefetch stalls, the full driver+disk penalty
  /// of each miss and the driver time of the prefetches issued.
  /// Excludes T_cpu (the caller's compute is theirs).
  double latency_ms = 0.0;
};

class PrefetchEngine {
 public:
  /// Validates the configuration (see engine::validate) and builds the
  /// policy; throws std::invalid_argument on a bad config.
  explicit PrefetchEngine(EngineConfig config);

  /// Feeds a run of references through the state machine — cache
  /// access, timing charges, predictor learning, prefetch issue — with
  /// the per-access setup hoisted out of the inner loop: the Context is
  /// built once and the observability mirror is published once per call
  /// (one stats-gate write section; the trace ring still records every
  /// access).  Splitting a stream into calls of any size changes no
  /// metric and no decision.
  ///
  /// `lookahead` is the stream after `blocks`, as far as the caller
  /// knows it.  Only the oracle perfect-selector reads it (Section 9.5):
  /// each access sees the next reference, blocks[i + 1] inside the batch
  /// and then lookahead.front().  Honest policies ignore it.
  BatchResult access_many(std::span<const trace::BlockId> blocks,
                          std::span<const trace::BlockId> lookahead = {});

  [[nodiscard]] const cache::BufferCache& buffer_cache() const noexcept {
    return cache_;
  }
  [[nodiscard]] const Metrics& metrics() const noexcept { return metrics_; }
  [[nodiscard]] const core::policy::Prefetcher& prefetcher() const noexcept {
    return *policy_;
  }
  [[nodiscard]] const EngineConfig& config() const noexcept {
    return config_;
  }

  /// Appends the engine's durable state to `out` as one "PFEG" v2 image:
  /// both cache residency sets, the accumulated metrics and the policy's
  /// predictor state as a tagged, length-prefixed blob written in place.
  /// Estimator EWMAs and in-flight disk state are transient and re-warm
  /// after restore.
  void snapshot(std::vector<std::uint8_t>& out) const;

  /// Rebuilds snapshot() state from exactly one image (trailing bytes are
  /// rejected).  The engine must be freshly constructed with a matching
  /// cache size and policy shape; throws std::runtime_error on malformed
  /// input or mismatch, before sizing anything from a count or length the
  /// image's bytes cannot hold.
  void restore(std::span<const std::uint8_t> image);

  /// Live observability snapshot: lock-free counters/gauges, per-phase
  /// latency histograms and trace-ring occupancy.  Safe to call from any
  /// thread while another thread drives access_many() — the read retries a
  /// seqlock for a consistent cut (docs/observability.md).
  [[nodiscard]] obs::EngineStats stats() const { return obs_.stats(); }

  /// The live observability backend (trace-ring access for dump tools).
  [[nodiscard]] const obs::EngineObs& observability() const noexcept {
    return obs_;
  }

  /// Writes this engine's event ring as Chrome trace_event JSON
  /// (chrome://tracing / Perfetto).  Quiescent-read contract: call from
  /// the driving thread, or after the driver has provably stopped.
  void write_chrome_trace(std::ostream& out) const;

 private:
  core::policy::AccessOutcome step_one(trace::BlockId block,
                                       std::optional<trace::BlockId> next,
                                       core::policy::Context& ctx);
  void run_blocks(std::span<const trace::BlockId> blocks,
                  std::span<const trace::BlockId> lookahead,
                  core::policy::Context& ctx);
  [[nodiscard]] core::policy::Context make_context();
  /// Publishes the deterministic metrics into the lock-free obs cells
  /// (one SnapshotGate write section).
  void publish_observability();

  EngineConfig config_;
  cache::BufferCache cache_;
  cache::DiskArray disks_;
  /// Disk totals restored from a snapshot; disks_ counts only what came
  /// after, so Metrics reports base + live.
  struct DiskTotals {
    std::uint64_t requests = 0;
    double queue_delay_ms = 0.0;
  } disk_base_;
  cache::StackDistanceEstimator stack_;
  core::costben::Estimators estimators_;
  std::unique_ptr<core::policy::Prefetcher> policy_;
  Metrics metrics_;
  obs::EngineObs obs_;
  util::PhaseStopwatch phase_clock_;
};

}  // namespace pfp::engine
