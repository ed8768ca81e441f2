#include "engine/sharded_engine.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/trace_ring.hpp"
#include "util/backoff.hpp"

namespace pfp::engine {

namespace {

// SplitMix64 finalizer: cheap, stable, and mixes low-entropy block ids
// (sequential file offsets) evenly across shards.
std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

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
  if (config.flush_threshold_min == 0) {
    throw std::invalid_argument(
        "ShardedConfig: flush_threshold_min must be at least 1");
  }
  if (config.flush_threshold_max < config.flush_threshold_min) {
    throw std::invalid_argument(
        "ShardedConfig: flush_threshold_max must be >= flush_threshold_min");
  }
  if (config.hot_keys != HotKeyStrategy::kNone &&
      config.hot_key_capacity == 0) {
    throw std::invalid_argument(
        "ShardedConfig: hot_key_capacity must be at least 1");
  }
  if (config.run_length == 0) {
    throw std::invalid_argument(
        "ShardedConfig: run_length must be at least 1");
  }
  if (config.routing == Routing::kRuns &&
      config.hot_keys == HotKeyStrategy::kRebalance) {
    throw std::invalid_argument(
        "ShardedConfig: kRebalance re-routes by key; run routing has no "
        "per-key shard affinity to rebalance");
  }
  if (config.engine.policy.kind ==
      core::policy::PolicyKind::kPerfectSelector) {
    // The oracle sees the next reference only within a worker's run, and
    // where runs are cut depends on thread timing.
    throw std::invalid_argument(
        "ShardedConfig: perfect-selector needs the whole future stream and "
        "cannot run sharded");
  }
  validate(config.engine);
  return config;
}

}  // namespace

ShardedEngine::ShardedEngine(ShardedConfig config)
    : config_(validated(config)), pool_(config_.shards) {
  if (config_.hot_keys != HotKeyStrategy::kNone) {
    hot_sketch_.emplace(config_.hot_key_capacity);
  }
  shards_.reserve(config_.shards);
  for (std::uint32_t i = 0; i < config_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(
        config_.engine, config_.queue_capacity, config_.flush_threshold_min));
    shards_.back()->queue.assert_producer();  // constructing thread
    shards_.back()->staged.reserve(config_.flush_threshold_max);
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
  // Staged residue must reach the rings before the workers are told to
  // stop, or those accesses would be lost.
  drain();
  stop_.store(true, std::memory_order_release);
  for (auto& future : workers_) {
    try {
      future.get();
    } catch (...) {
      // Worker exceptions (none expected: access_many() doesn't throw
      // after construction) must not escape a destructor.
    }
  }
}

std::uint32_t ShardedEngine::shard_of(trace::BlockId block) const noexcept {
  return static_cast<std::uint32_t>(mix64(block) %
                                    shards_.size());
}

std::uint32_t ShardedEngine::rendezvous_shard(
    trace::BlockId block) const noexcept {
  // Highest-random-weight choice over the shards with a hash stream
  // independent of the base partition (different per-shard salt), so a
  // clump of hot keys that mix64 % shards co-located gets spread out.
  std::uint32_t best = 0;
  std::uint64_t best_score = 0;
  for (std::uint32_t i = 0; i < shards(); ++i) {
    const std::uint64_t score =
        mix64(block ^ (0xa0761d6478bd642fULL * (i + 1)));
    if (score > best_score) {
      best_score = score;
      best = i;
    }
  }
  return best;
}

std::uint32_t ShardedEngine::route(trace::BlockId block) {
  if (hot_sketch_.has_value()) {
    hot_sketch_->record(block);
    if (config_.hot_keys == HotKeyStrategy::kRebalance &&
        hot_sketch_->is_heavy(block, config_.hot_key_min_count)) {
      // kRebalance implies kHash routing (validated()), so this is the
      // only detour from the base partition.
      return rendezvous_shard(block);
    }
  }
  if (config_.routing == Routing::kRuns) {
    // Deal the stream out in run_length-sized slices: a pure function of
    // the reference's position, so the partition does not depend on how
    // the stream is split into access_many() calls.
    return static_cast<std::uint32_t>((routed_++ / config_.run_length) %
                                      shards_.size());
  }
  return shard_of(block);
}

void ShardedEngine::access_many(std::span<const trace::BlockId> blocks) {
  for (const trace::BlockId block : blocks) {
    Shard& shard = *shards_[route(block)];
    shard.queue.assert_producer();
    shard.staged.push_back(block);
    std::size_t threshold = shard.flush_threshold;
    if (config_.hot_keys == HotKeyStrategy::kBatchRuns &&
        hot_sketch_->is_heavy(block, config_.hot_key_min_count)) {
      // Hot shard: let the run grow to the maximum so the hammered ring
      // gets the cheapest possible per-element hand-off.  Flush timing
      // only — per-shard order is untouched.
      threshold = config_.flush_threshold_max;
    }
    if (shard.staged.size() >= threshold) {
      flush_staged(shard);
    }
  }
}

void ShardedEngine::flush_staged(Shard& shard) {
  shard.queue.assert_producer();
  shard.push_waits.assert_writer();
  std::span<const trace::BlockId> rest(shard.staged);
  util::Backoff backoff;
  bool waited = false;
  while (!rest.empty()) {
    const std::size_t accepted = shard.queue.try_push_n(rest);
    if (accepted == 0) {
      waited = true;
      shard.push_waits.inc();
      backoff.wait();
      continue;
    }
    rest = rest.subspan(accepted);
    backoff.reset();
  }
  shard.pushed += shard.staged.size();
  shard.staged.clear();
  // Adapt the run length to the worker: backpressure means it is behind
  // (longer runs amortize the hand-off the producer is stalled on
  // anyway); instant full acceptance means it keeps up (shorter runs
  // hand work over sooner instead of parking it in the staging buffer).
  if (waited) {
    shard.flush_threshold =
        std::min(shard.flush_threshold * 2, config_.flush_threshold_max);
  } else {
    shard.flush_threshold =
        std::max(shard.flush_threshold - shard.flush_threshold / 4,
                 config_.flush_threshold_min);
  }
}

void ShardedEngine::drain() {
  for (auto& shard : shards_) {
    shard->queue.assert_producer();
    if (!shard->staged.empty()) {
      flush_staged(*shard);
    }
  }
}

void ShardedEngine::flush() {
  drain();
  for (auto& shard : shards_) {
    shard->queue.assert_producer();  // `pushed` is producer-guarded
    util::Backoff backoff;
    while (shard->processed.load(std::memory_order_acquire) <
           shard->pushed) {
      backoff.wait();
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
  // ever touches shard.engine after construction.  It pulls
  // variable-size runs in one bulk ring transaction each and feeds them
  // through the engine's batched loop, so both ends of the ring and the
  // per-access setup are amortized over the run.
  shard.queue.assert_consumer();
  std::vector<trace::BlockId> run(config_.flush_threshold_max);
  util::Backoff backoff;
  for (;;) {
    const std::size_t n = shard.queue.try_pop_n(run.data(), run.size());
    if (n > 0) {
      shard.engine.access_many(std::span(run.data(), n));
      shard.processed.fetch_add(n, std::memory_order_release);
      backoff.reset();
      continue;
    }
    if (stop_.load(std::memory_order_acquire)) {
      // Drain anything that raced in before stop was observed.
      for (;;) {
        const std::size_t tail = shard.queue.try_pop_n(run.data(), run.size());
        if (tail == 0) {
          return;
        }
        shard.engine.access_many(std::span(run.data(), tail));
        shard.processed.fetch_add(tail, std::memory_order_release);
      }
    }
    backoff.wait();
  }
}

}  // namespace pfp::engine
