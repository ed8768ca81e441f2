#include "engine/sharded_engine.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "obs/trace_ring.hpp"

namespace pfp::engine {

namespace {

// Runs before the thread pool spins up (member-init order), so a bad
// shard count can never spawn a runaway number of workers first.
ShardedConfig validated(ShardedConfig config) {
  if (config.shards == 0) {
    throw std::invalid_argument("ShardedConfig: shards must be at least 1");
  }
  if (config.shards > 1024) {
    throw std::invalid_argument(
        "ShardedConfig: shards must be at most 1024");
  }
  if (config.run_length == 0) {
    throw std::invalid_argument(
        "ShardedConfig: run_length must be at least 1");
  }
  if (config.engine.policy.kind ==
      core::policy::PolicyKind::kPerfectSelector) {
    // The oracle sees the next reference only within a worker's batch,
    // and where batches are cut depends on thread timing.
    throw std::invalid_argument(
        "ShardedConfig: perfect-selector needs the whole future stream and "
        "cannot run sharded");
  }
  validate(config.engine);
  return config;
}

// A bell change is what releases a wait() on it; the release pairs with
// the waiter's acquire load, so whatever was published before the ring
// is visible to a waiter that sees the new value.
void ring_bell(std::atomic<std::uint32_t>& bell) {
  bell.fetch_add(1, std::memory_order_release);
  bell.notify_one();
}

}  // namespace

ShardedEngine::ShardedEngine(ShardedConfig config)
    : config_(validated(config)), pool_(config_.shards) {
  shards_.reserve(config_.shards);
  for (std::uint32_t i = 0; i < config_.shards; ++i) {
    shards_.push_back(
        std::make_unique<Shard>(config_.engine, config_.queue_capacity));
  }
  // Thread-per-shard: each worker occupies one pool thread for the
  // engine's whole lifetime, which is why the pool is sized to shards.
  workers_.reserve(config.shards);
  for (auto& shard : shards_) {
    Shard* s = shard.get();
    workers_.push_back(pool_.submit([this, s] { worker(*s); }));
  }
}

ShardedEngine::~ShardedEngine() {
  stop_.store(true, std::memory_order_release);
  for (auto& shard : shards_) {
    ring_bell(shard->work_bell);
  }
  for (auto& future : workers_) {
    try {
      future.get();
    } catch (...) {
      // Worker exceptions (none expected: access_many() doesn't throw
      // after construction) must not escape a destructor.
    }
  }
}

void ShardedEngine::access_many(std::span<const trace::BlockId> blocks) {
  // The deal is a pure function of the stream position, so the partition
  // does not depend on how the stream is split into calls.
  while (!blocks.empty()) {
    const std::uint64_t run = routed_ / config_.run_length;
    const std::size_t left_in_run =
        config_.run_length -
        static_cast<std::size_t>(routed_ % config_.run_length);
    const std::size_t n = std::min(blocks.size(), left_in_run);
    push(*shards_[run % shards_.size()], blocks.first(n));
    routed_ += n;
    blocks = blocks.subspan(n);
  }
}

void ShardedEngine::push(Shard& shard, std::span<const trace::BlockId> slice) {
  shard.queue.assert_producer();
  shard.push_waits.assert_writer();
  while (!slice.empty()) {
    // Read the bell before trying: a batch the worker finishes after the
    // failed try changes it, so the wait below cannot miss the space.
    const std::uint32_t bell = shard.done_bell.load(std::memory_order_acquire);
    const std::size_t accepted = shard.queue.try_push_n(slice);
    if (accepted == 0) {
      ring_bell(shard.work_bell);  // a full ring only drains if its worker runs
      shard.push_waits.inc();
      shard.done_bell.wait(bell, std::memory_order_acquire);
      continue;
    }
    shard.pushed += accepted;
    slice = slice.subspan(accepted);
  }
  // Wake the worker only once its ring holds a pop batch (or half the
  // ring, if that is smaller).  A worker that is awake drains the ring
  // before it sleeps again, so a trickle of one-reference calls costs a
  // futex wake per pop batch, not one per reference; what is left below
  // the mark is picked up by the next wake, a full ring or flush().
  if (shard.queue.size() >=
      std::min(kPopBatch, shard.queue.capacity() / 2)) {
    ring_bell(shard.work_bell);
  }
}

void ShardedEngine::flush() {
  for (auto& shard : shards_) {
    shard->queue.assert_producer();  // `pushed` is producer-guarded
    if (shard->processed.load(std::memory_order_acquire) < shard->pushed) {
      ring_bell(shard->work_bell);  // it may be asleep below the wake mark
    }
    for (;;) {
      const std::uint32_t bell =
          shard->done_bell.load(std::memory_order_acquire);
      if (shard->processed.load(std::memory_order_acquire) >= shard->pushed) {
        break;
      }
      shard->done_bell.wait(bell, std::memory_order_acquire);
    }
  }
}

Metrics ShardedEngine::merged_metrics() {
  flush();
  std::vector<Metrics> per_shard;
  per_shard.reserve(shards_.size());
  for (const auto& shard : shards_) {
    per_shard.push_back(shard->engine.metrics());
  }
  return merge_metrics(per_shard);
}

obs::EngineStats ShardedEngine::shard_stats(std::uint32_t index) const {
  const Shard& shard = *shards_[index];
  obs::EngineStats stats = shard.engine.stats();
  stats.queue_occupancy = shard.queue.size();
  stats.queue_capacity = shard.queue.capacity();
  stats.queue_backpressure_waits = shard.push_waits.get();
  return stats;
}

obs::EngineStats ShardedEngine::stats() const {
  obs::EngineStats merged = shard_stats(0);
  for (std::uint32_t i = 1; i < shards(); ++i) {
    merged.merge(shard_stats(i));
  }
  return merged;
}

void ShardedEngine::write_chrome_trace(std::ostream& out) {
  // flush()'s acquire on each processed counter orders the workers' ring
  // slot writes before our reads (the quiescent-dump contract).
  flush();
  std::vector<const obs::TraceRing*> rings;
  rings.reserve(shards_.size());
  for (const auto& shard : shards_) {
    rings.push_back(&shard->engine.observability().ring());
  }
  obs::write_chrome_trace(out, rings);
}

void ShardedEngine::worker(Shard& shard) {
  // This thread is the shard's unique consumer and the only thread that
  // ever touches shard.engine after construction.  It pulls up to
  // kPopBatch references per ring transaction and feeds them through the
  // engine's batched loop, so both ends of the ring and the per-access
  // setup are amortized over the batch.
  shard.queue.assert_consumer();
  std::array<trace::BlockId, kPopBatch> batch{};
  for (;;) {
    // Bell first, then stop, then the ring: a wake or stop after the bell
    // read changes the bell, so the wait below cannot sleep through it;
    // and once stop reads true every reference pushed before it is
    // visible, so an empty pop then means the ring is drained for good.
    const std::uint32_t bell = shard.work_bell.load(std::memory_order_acquire);
    const bool stopping = stop_.load(std::memory_order_acquire);
    const std::size_t n = shard.queue.try_pop_n(batch.data(), batch.size());
    if (n > 0) {
      shard.engine.access_many(std::span(batch.data(), n));
      shard.processed.fetch_add(n, std::memory_order_release);
      ring_bell(shard.done_bell);
      continue;
    }
    if (stopping) {
      return;
    }
    shard.work_bell.wait(bell, std::memory_order_acquire);
  }
}

}  // namespace pfp::engine
