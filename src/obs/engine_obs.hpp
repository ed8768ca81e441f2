// The per-engine observability backend and its snapshot type.
//
// One EngineObs instance rides inside each engine::PrefetchEngine (one
// per shard under ShardedEngine).  The engine thread publishes its
// deterministic Metrics counters into the lock-free cells once per
// access_many() call inside a SnapshotGate write section; scraper threads
// call stats() at any time and get a consistent cut without stopping the
// engine.  The phase stopwatch and the event-trace ring are owned here
// too, so the engine wires exactly one object.
//
// Observability is strictly write-only from the engine's point of view:
// nothing in this layer ever feeds back into a prefetch decision, which
// is why every metric pin stays bit-identical with the phase timers and
// the event ring armed or idle.
//
// Cost story: idle, the layer costs one publish per access_many() call
// (a dozen relaxed stores in one gate write section); the clock-reading
// phase timers and the event ring are opt-in at runtime (ObsOptions).
#pragma once

#include <cstdint>

#include "obs/counters.hpp"
#include "obs/phase_timing.hpp"
#include "obs/trace_ring.hpp"
#include "util/phase.hpp"
#include "util/thread_annotations.hpp"

namespace pfp::obs {

/// Runtime knobs, carried in engine::EngineConfig.  Counters and gauges
/// are always live (a handful of relaxed stores per access_many() call);
/// the clock-reading phase timers and the event ring are opt-in because
/// their overhead is measurable (see BENCH_04.json).
struct ObsOptions {
  /// Wrap the six state-machine stages in latency timers (7 steady_clock
  /// reads per access when on).
  bool phase_timers = false;
  /// Event-trace ring capacity in events (rounded up to a power of two);
  /// 0 disables event recording.
  std::size_t trace_capacity = 0;
};

/// The live lock-free cells the engine publishes into.  Single writer
/// (the engine thread); see counters.hpp for the read contract.
struct EngineCounters {
  /// The calling thread declares itself the unique writer of every cell
  /// at once (the engine publishes them as one batch; asserting the
  /// twelve roles cell-by-cell would drown the publish section).
  void assert_writer() const noexcept PFP_ASSERT_CAPABILITY(
      accesses.writer_role, demand_hits.writer_role,
      prefetch_hits.writer_role, misses.writer_role,
      prefetches_issued.writer_role, prefetch_ejections.writer_role,
      demand_ejections.writer_role, disk_requests.writer_role,
      resident_blocks.writer_role, free_buffers.writer_role,
      tree_nodes.writer_role, elapsed_virtual_us.writer_role) {}

  Counter accesses;
  Counter demand_hits;
  Counter prefetch_hits;
  Counter misses;
  Counter prefetches_issued;
  Counter prefetch_ejections;
  Counter demand_ejections;
  Counter disk_requests;
  Gauge resident_blocks;
  Gauge free_buffers;
  Gauge tree_nodes;
  Gauge elapsed_virtual_us;
};

/// Plain-value snapshot of one engine's (or a merged view's) cells.
struct EngineStats {
  std::uint64_t accesses = 0;
  std::uint64_t demand_hits = 0;
  std::uint64_t prefetch_hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t prefetches_issued = 0;
  std::uint64_t prefetch_ejections = 0;
  std::uint64_t demand_ejections = 0;
  std::uint64_t disk_requests = 0;

  std::uint64_t resident_blocks = 0;
  std::uint64_t free_buffers = 0;
  std::uint64_t tree_nodes = 0;
  std::uint64_t elapsed_virtual_us = 0;

  PhaseTiming phases;

  std::uint64_t trace_recorded = 0;
  std::uint64_t trace_dropped = 0;
  std::uint64_t trace_capacity = 0;
  std::uint64_t trace_occupancy = 0;

  // Shard plumbing (ShardedEngine fills these; zero on a plain engine).
  std::uint64_t queue_occupancy = 0;
  std::uint64_t queue_capacity = 0;
  std::uint64_t queue_backpressure_waits = 0;

  /// Engines folded into this view (1 for a single engine).
  std::uint32_t shards = 1;
  /// False when a live read exhausted its seqlock retries and the cut may
  /// mix two periods (the values themselves are still well-defined).
  bool consistent = true;

  /// Deterministic fold for per-shard views: counters, phase buckets and
  /// queue/trace totals sum; elapsed_virtual_us takes the max (shards run
  /// concurrently, so summed virtual time is not wall-clock-like).
  void merge(const EngineStats& other);
};

class EngineObs {
 public:
  explicit EngineObs(ObsOptions options)
      : options_(options),
        ring_(options.trace_capacity) {}

  EngineObs(const EngineObs&) = delete;
  EngineObs& operator=(const EngineObs&) = delete;

  [[nodiscard]] const ObsOptions& options() const noexcept {
    return options_;
  }

  // --- writer side (engine thread only) ---------------------------------
  SnapshotGate& gate() noexcept { return gate_; }
  EngineCounters& counters() noexcept { return counters_; }
  TraceRing& ring() noexcept { return ring_; }
  /// Null when phase timing is disabled (arm the stopwatch with this).
  [[nodiscard]] util::PhaseCells* phase_cells() noexcept {
    return options_.phase_timers ? &phase_cells_ : nullptr;
  }

  // --- reader side (any thread) -----------------------------------------
  /// Snapshot-consistent read: retries the seqlock a bounded number of
  /// times, then falls back to a best-effort cut with consistent=false.
  [[nodiscard]] EngineStats stats() const;
  [[nodiscard]] const TraceRing& ring() const noexcept { return ring_; }

 private:
  ObsOptions options_;
  SnapshotGate gate_;
  EngineCounters counters_;
  util::PhaseCells phase_cells_;
  TraceRing ring_;
};

}  // namespace pfp::obs
