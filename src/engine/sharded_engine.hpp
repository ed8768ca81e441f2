// Sharded prefetch engine: N independent PrefetchEngine shards, one
// worker thread each, fed through per-shard SPSC request queues.
//
// Two partitioning modes (ShardedConfig::routing):
//
//  - Routing::kHash (default): the block space is hash-partitioned, so
//    each shard owns a disjoint set of blocks.  This is the distributed-
//    storage shape (a block lives on exactly one node), but it scatters
//    consecutive references across shards, which destroys exactly the
//    reference-order locality the LZ-tree predictor feeds on — measured
//    cost on the CAD workload: ~2.6x more aggregate state-machine work
//    than a single engine (docs/perf.md, "Batched hand-off").
//
//  - Routing::kRuns: the reference STREAM is sliced into fixed-length
//    runs dealt round-robin to the shards.  Each shard sees contiguous
//    segments of the real access sequence, so the predictor keeps its
//    chains, and every run is naturally one bulk ring transaction.  A
//    block may be cached by several shards (each shard provisions its
//    own buffer pool), which is the scale-out-replicas shape.
//
// Either way each shard runs the full per-access state machine on its
// private cache + predictor + estimators with no cross-shard
// synchronization at all — the only shared state is the queue indices
// and a per-shard processed counter.  Consequence (proven by test): for
// a partitioned workload, every shard reproduces bit-identically the
// metrics of a single PrefetchEngine fed that shard's sub-stream (key
// partition under kHash, positional slices under kRuns), and the merged
// metrics are a deterministic, completion-order-independent fold of the
// per-shard metrics.
//
//   engine::ShardedEngine eng(config);  // spawns the shard workers
//   eng.access_many(blocks);            // routes runs to shard queues
//   eng.flush();                        // waits for queues to drain
//   const auto merged = eng.merged_metrics();
//
// access_many() routes a whole span into per-shard staging buffers and
// flushes each shard's run to its ring in one bulk transaction
// (docs/perf.md, "Batched hand-off"); a host with one reference at a
// time passes a one-element span.  Staged residue is flushed by drain()
// (also implied by flush() and the destructor).
//
// access_many(), drain(), flush() and the metrics accessors must be
// called from one producer thread; the shards consume concurrently.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <iosfwd>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "engine/config.hpp"
#include "engine/metrics.hpp"
#include "engine/prefetch_engine.hpp"
#include "obs/counters.hpp"
#include "obs/engine_obs.hpp"
#include "util/space_saving.hpp"
#include "util/spsc_queue.hpp"
#include "util/thread_annotations.hpp"
#include "util/thread_pool.hpp"

namespace pfp::engine {

/// How references are partitioned across the shards.
enum class Routing {
  /// Hash-partition the block space: a block always lands on the same
  /// shard, shard caches are disjoint.  Pays a large predictor-locality
  /// tax on sequence-structured workloads (see the file header).
  kHash,
  /// Slice the reference stream into run_length-sized runs dealt
  /// round-robin: shard k processes runs k, k+shards, ...  Preserves
  /// reference-order locality per shard and makes every run one bulk
  /// ring transaction; blocks may be cached by several shards.
  /// Deterministic in the stream position alone, however the stream is
  /// split into access_many() calls.
  kRuns,
};

/// Zipf hot-key mitigation for the batched hand-off.  Skewed workloads
/// concentrate references on a few hot blocks, which hash-partitioning
/// concentrates on a few hot shards; both strategies are driven by a
/// producer-side space-saving sketch (util::SpaceSaving) and are
/// deterministic functions of the producer-observed stream prefix.
/// Head-to-head numbers: docs/perf.md, "Batched hand-off".
enum class HotKeyStrategy {
  /// Pure hash partition (the sketch is not even built).
  kNone,
  /// Keep the partition, but let runs bound for a shard that is
  /// currently absorbing a guaranteed-heavy key grow to
  /// flush_threshold_max before flushing: hot shards get maximal ring
  /// transactions.  Flush TIMING changes only — never per-shard order —
  /// so the per-shard == single-engine equivalence is preserved.
  kBatchRuns,
  /// Re-route guaranteed-heavy keys via rendezvous hashing, spreading a
  /// clump of hot keys that the base hash happened to co-locate across
  /// distinct shards.  Requires Routing::kHash (run routing has no
  /// per-key shard affinity to rebalance; the config is rejected).  A key's route can switch when it first clears
  /// the heaviness bound (deterministically — the sketch is a pure
  /// function of the stream prefix), so the block partition is no
  /// longer static and per-shard metrics differ from the kNone fold;
  /// replays remain bit-identical run to run.
  kRebalance,
};

struct ShardedConfig {
  /// Per-shard engine configuration; cache_blocks is PER SHARD, so total
  /// buffer memory is shards * cache_blocks.
  EngineConfig engine;
  std::uint32_t shards = 4;
  /// Per-shard request ring capacity (rounded up to a power of two).
  std::size_t queue_capacity = 4096;
  /// Adaptive bulk-flush bounds for access_many(): a shard's staged run
  /// is handed to its ring once it reaches the shard's current
  /// threshold, which floats between these bounds (doubling on
  /// backpressure, decaying when the worker keeps up).
  std::size_t flush_threshold_min = 32;
  std::size_t flush_threshold_max = 256;
  /// Reference partitioning mode (see Routing).
  Routing routing = Routing::kHash;
  /// Run length for Routing::kRuns: how many consecutive references go
  /// to one shard before the deal moves on.  Longer runs preserve more
  /// predictor locality and cost fewer ring transactions; shorter runs
  /// spread load sooner.  Ignored under kHash.
  std::size_t run_length = 1024;
  /// Hot-key mitigation strategy (see HotKeyStrategy).
  HotKeyStrategy hot_keys = HotKeyStrategy::kNone;
  /// Sketch slots for the producer-side space-saving sketch (tracked
  /// top-K candidates); only used when hot_keys != kNone.
  std::size_t hot_key_capacity = 16;
  /// A key counts as hot once its GUARANTEED sketch frequency (count
  /// minus inherited error) reaches this; filters the Zipf tail
  /// churning through the sketch's minimum slot.
  std::uint64_t hot_key_min_count = 1024;
};

class ShardedEngine {
 public:
  /// Validates the config and spawns one worker per shard on an internal
  /// thread pool; throws std::invalid_argument on a bad config.
  explicit ShardedEngine(ShardedConfig config);

  /// Stops the workers after draining already-queued requests.
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  [[nodiscard]] std::uint32_t shards() const noexcept {
    return static_cast<std::uint32_t>(shards_.size());
  }
  [[nodiscard]] const ShardedConfig& config() const noexcept {
    return config_;
  }

  /// Which shard the base hash partition assigns a block.  This is the
  /// actual route under Routing::kHash except for
  /// HotKeyStrategy::kRebalance's guaranteed-heavy keys (see route());
  /// Routing::kRuns ignores it entirely.
  [[nodiscard]] std::uint32_t shard_of(trace::BlockId block) const noexcept;

  /// The only entry point: routes the whole span into per-shard staging
  /// buffers and hands each shard's run to its ring in bulk
  /// transactions of flush_threshold_{min..max} records (adaptive; see
  /// ShardedConfig), waiting with bounded exponential backoff
  /// (util::Backoff — spin tiers, then yield) while a ring is full.  Up
  /// to flush_threshold_max - 1 references per shard may remain staged
  /// on return — call drain() (or flush()) to force them out.  Each
  /// shard sees its sub-stream in producer order.  Producer thread only.
  void access_many(std::span<const trace::BlockId> blocks);

  /// Flushes every shard's staged residue to its ring (waiting out
  /// backpressure), without waiting for the workers to process it.
  /// Producer thread only.
  void drain();

  /// Drains staged residue, then blocks until every routed reference
  /// has been processed.  After flush() returns, shard state reads are
  /// race-free (the workers are parked on empty queues).
  void flush();

  /// One shard's engine, for introspection; call flush() first.
  [[nodiscard]] const PrefetchEngine& shard(std::uint32_t index) const {
    return shards_[index]->engine;
  }

  /// Flushes, then folds per-shard metrics in shard-index order (see
  /// merge_metrics for why that makes the result deterministic).
  [[nodiscard]] Metrics merged_metrics();

  /// One shard's live observability view, decorated with that shard's
  /// queue occupancy/capacity gauges and backpressure-wait count.  Unlike
  /// shard(), this needs no flush — any thread, any time.
  [[nodiscard]] obs::EngineStats shard_stats(std::uint32_t index) const;

  /// Live merged view: shard_stats folded in shard-index order.  Counter
  /// sums are exact per shard but the cut across shards is not atomic —
  /// after flush() it equals the deterministic merged_metrics fold.
  [[nodiscard]] obs::EngineStats stats() const;

  /// Flushes, then renders every shard's event ring as one Chrome
  /// trace_event JSON document (pid = shard index).  Producer thread
  /// only, like flush().
  void write_chrome_trace(std::ostream& out);

 private:
  // The caller-thread / shard-thread method partition is machine-checked
  // through the queue's role capabilities (thread_annotations.hpp):
  // access_many()/flush() assert and require the producer role of the shard
  // queues they touch, worker() the consumer role.  A new method that
  // reads producer-guarded state (e.g. `pushed`) from a worker — or vice
  // versa — fails the -Werror=thread-safety CI leg.
  struct Shard {
    Shard(const EngineConfig& config, std::size_t queue_capacity,
          std::size_t initial_flush_threshold)
        : engine(config),
          queue(queue_capacity),
          flush_threshold(initial_flush_threshold) {}
    PrefetchEngine engine;
    util::SpscQueue<trace::BlockId> queue;
    /// Accesses completed by the worker; release-published so flush()'s
    /// acquire load orders subsequent shard-state reads.
    // writers: shard worker thread  readers: producer thread (flush)
    std::atomic<std::uint64_t> processed{0};
    /// Accesses handed to the ring (staged residue not yet counted);
    /// producer-thread-only, no atomics needed.
    // writers: producer thread (flush_staged)  readers: producer thread
    std::uint64_t pushed PFP_GUARDED_BY(queue.producer_role) = 0;
    /// access_many() staging buffer: routed references parked here until
    /// the run reaches flush_threshold, then handed to the ring in one
    /// bulk transaction (try_push_n).  Never observed by the worker.
    // writers: producer thread (access_many/flush_staged)  readers: producer thread
    std::vector<trace::BlockId> staged PFP_GUARDED_BY(queue.producer_role);
    /// Adaptive bulk-flush threshold, floating between the config's
    /// flush_threshold_min/max (doubled on backpressure, decayed when
    /// the worker keeps up).
    // writers: producer thread (flush_staged)  readers: producer thread
    std::size_t flush_threshold PFP_GUARDED_BY(queue.producer_role);
    /// Backoff waits the producer burned on a full queue (bulk flush);
    /// producer-written, scraper-read (single-writer Counter contract).
    obs::Counter push_waits;
  };

  void worker(Shard& shard);
  /// The actual route for a reference: records it in the hot-key sketch,
  /// applies the configured mitigation, and picks the shard per the
  /// routing mode (shard_of() under kHash, the stream-position deal
  /// under kRuns).  Producer thread only (the sketch and the position
  /// counter are producer state).
  [[nodiscard]] std::uint32_t route(trace::BlockId block);
  /// Highest-rendezvous-hash shard for a block (kRebalance target).
  [[nodiscard]] std::uint32_t rendezvous_shard(
      trace::BlockId block) const noexcept;
  /// Hands a shard's whole staged run to its ring (bounded backoff on
  /// backpressure), advances `pushed`, and adapts flush_threshold.
  void flush_staged(Shard& shard);

  ShardedConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Producer-side heavy-hitter sketch; engaged when hot_keys != kNone.
  // writers: producer thread (route)  readers: producer thread
  std::optional<util::SpaceSaving> hot_sketch_;
  /// References routed so far; drives the Routing::kRuns deal.
  // writers: producer thread (route)  readers: producer thread
  std::uint64_t routed_ = 0;
  // writers: destructor (producer thread)  readers: shard worker threads
  std::atomic<bool> stop_{false};
  util::ThreadPool pool_;  ///< exactly one thread per shard
  std::vector<std::future<void>> workers_;
};

}  // namespace pfp::engine
