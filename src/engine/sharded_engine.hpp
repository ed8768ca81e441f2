// Sharded prefetch engine: N independent PrefetchEngine shards, one
// worker thread each, fed through per-shard SPSC request rings.
//
// Run routing: the reference STREAM is sliced into run_length-sized runs
// dealt round-robin, so the reference at stream position `pos` goes to
// shard (pos / run_length) % shards.  Each shard sees contiguous
// segments of the real access sequence, so its predictor keeps its
// chains (the paper's LZ tree and the markov/assoc families all learn
// from reference order).  A block may be cached by several shards, each
// of which provisions its own buffer pool: the scale-out-replicas shape.
// Partitioning the block space by key instead scattered that order and
// ran at half the throughput (docs/perf.md, "Sharding").
//
// Each shard runs the full per-access state machine on its private cache
// + predictor + estimators with no cross-shard synchronization at all —
// the only shared state is the ring indices, a processed counter and two
// wait/notify bells per shard.  Consequence (proven by test): every
// shard reproduces bit-identically the metrics of a single
// PrefetchEngine fed that shard's positional slices, however the stream
// is split into access_many() calls, and the merged metrics are a
// deterministic, completion-order-independent fold of the per-shard
// metrics.  They are not the metrics of one engine fed the whole stream:
// each shard predicts from its own slices only (docs/perf.md, "Sharding",
// has the miss-rate cost).
//
//   engine::ShardedEngine eng(config);  // spawns the shard workers
//   eng.access_many(blocks);            // hands runs to shard rings
//   eng.flush();                        // waits for the rings to drain
//   const auto merged = eng.merged_metrics();
//
// access_many() cuts the caller's span at run boundaries and copies each
// slice straight into its shard's ring (no staging, nothing left behind
// on return).  Waits — a worker on an empty ring, the producer on a full
// ring or in flush() — block on the bells after a short spin, so an idle
// engine sleeps instead of burning its cores.  A sleeping worker is woken
// once its ring holds a pop batch, fills, or flush() asks, so a trickle of
// one-reference calls pays one wake per batch rather than per reference;
// until then live stats() lag by what sits in the rings.
//
// access_many(), flush() and the metrics accessors must be called from
// one producer thread; the shards consume concurrently.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <iosfwd>
#include <memory>
#include <span>
#include <vector>

#include "engine/config.hpp"
#include "engine/metrics.hpp"
#include "engine/prefetch_engine.hpp"
#include "obs/counters.hpp"
#include "obs/engine_obs.hpp"
#include "util/spsc_queue.hpp"
#include "util/thread_annotations.hpp"
#include "util/thread_pool.hpp"

namespace pfp::engine {

struct ShardedConfig {
  /// Per-shard engine configuration; cache_blocks is PER SHARD, so total
  /// buffer memory is shards * cache_blocks.
  EngineConfig engine;
  std::uint32_t shards = 4;
  /// Per-shard request ring capacity (rounded up to a power of two).
  std::size_t queue_capacity = 4096;
  /// How many consecutive references go to one shard before the deal
  /// moves on.  Longer runs preserve more predictor locality and cost
  /// fewer ring transactions; shorter runs spread load sooner.
  std::size_t run_length = 1024;
};

class ShardedEngine {
 public:
  /// Most references a worker pops (and feeds to its engine) per ring
  /// transaction.
  static constexpr std::size_t kPopBatch = 256;

  /// Validates the config and spawns one worker per shard on an internal
  /// thread pool; throws std::invalid_argument on a bad config.
  explicit ShardedEngine(ShardedConfig config);

  /// Stops the workers after they drain already-queued requests.
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  [[nodiscard]] std::uint32_t shards() const noexcept {
    return static_cast<std::uint32_t>(shards_.size());
  }
  [[nodiscard]] const ShardedConfig& config() const noexcept {
    return config_;
  }

  /// The only entry point: cuts the span at run boundaries and copies
  /// each slice into its shard's ring, waiting while a ring is full.
  /// Every reference is in a ring on return.  Producer thread only.
  void access_many(std::span<const trace::BlockId> blocks);

  /// Blocks until every reference handed over has been processed.  After
  /// flush() returns, shard state reads are race-free (the workers are
  /// parked on empty rings).
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
  //
  // The bells are 32-bit so std::atomic wait/notify maps straight onto a
  // futex on the bell's own address.
  struct Shard {
    Shard(const EngineConfig& config, std::size_t queue_capacity)
        : engine(config), queue(queue_capacity) {}
    PrefetchEngine engine;
    util::SpscQueue<trace::BlockId> queue;
    /// Rung when a push leaves the ring at the wake mark, before the
    /// producer waits on a full ring, by flush() and by the destructor's
    /// stop; the worker sleeps on it while its ring is empty.
    // writers: producer thread (push, flush, destructor)  readers: shard worker
    // thread
    alignas(64) std::atomic<std::uint32_t> work_bell{0};
    /// Accesses completed by the worker; release-published so flush()'s
    /// acquire load orders subsequent shard-state reads.
    // writers: shard worker thread  readers: producer thread (flush)
    alignas(64) std::atomic<std::uint64_t> processed{0};
    /// Rung after every processed batch; the producer sleeps on it while
    /// the ring is full or flush() is waiting.
    // writers: shard worker thread  readers: producer thread (push, flush)
    std::atomic<std::uint32_t> done_bell{0};
    /// Accesses handed to the ring; producer-thread-only, no atomics
    /// needed.
    // writers: producer thread (push)  readers: producer thread (flush)
    std::uint64_t pushed PFP_GUARDED_BY(queue.producer_role) = 0;
    /// Times the producer slept on a full ring; producer-written,
    /// scraper-read (single-writer Counter contract).
    obs::Counter push_waits;
  };

  void worker(Shard& shard);
  /// Copies one slice into a shard's ring, sleeping on done_bell while
  /// the ring is full; advances `pushed` and rings work_bell once the
  /// ring holds min(kPopBatch, capacity / 2) references.
  void push(Shard& shard, std::span<const trace::BlockId> slice);

  ShardedConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// References handed over so far: the stream position that drives the
  /// deal.
  // writers: producer thread (access_many)  readers: producer thread
  std::uint64_t routed_ = 0;
  // writers: destructor (producer thread)  readers: shard worker threads
  std::atomic<bool> stop_{false};
  util::ThreadPool pool_;  ///< exactly one thread per shard
  std::vector<std::future<void>> workers_;
};

}  // namespace pfp::engine
