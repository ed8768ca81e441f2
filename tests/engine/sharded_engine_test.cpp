#include "engine/sharded_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "engine/prefetch_engine.hpp"
#include "trace/gen_cad.hpp"
#include "util/prng.hpp"

namespace pfp::engine {
namespace {

using core::policy::PolicyKind;

EngineConfig tree_config(std::size_t blocks = 256) {
  EngineConfig c;
  c.cache_blocks = blocks;
  c.policy.kind = PolicyKind::kTreeNextLimit;
  return c;
}

trace::Trace cad_trace(std::uint64_t references = 50'000) {
  trace::CadGenerator::Config cfg;
  cfg.references = references;
  return trace::CadGenerator(cfg).generate();
}

TEST(ShardedEngine, RejectsBadShardCounts) {
  ShardedConfig c;
  c.engine = tree_config();
  c.shards = 0;
  EXPECT_THROW(ShardedEngine{c}, std::invalid_argument);
  c.shards = 5000;
  EXPECT_THROW(ShardedEngine{c}, std::invalid_argument);
}

TEST(ShardedEngine, ValidatesEngineConfig) {
  ShardedConfig c;
  c.engine = tree_config();
  c.engine.cache_blocks = 0;
  c.shards = 2;
  EXPECT_THROW(ShardedEngine{c}, std::invalid_argument);
  // The oracle's look-ahead would end wherever a worker's run happens
  // to be cut, which depends on thread timing.
  c.engine = tree_config();
  c.engine.policy.kind = PolicyKind::kPerfectSelector;
  EXPECT_THROW(ShardedEngine{c}, std::invalid_argument);
}

TEST(ShardedEngine, ShardOfIsAStablePartition) {
  ShardedConfig c;
  c.engine = tree_config();
  c.shards = 4;
  ShardedEngine eng(c);
  for (trace::BlockId b = 0; b < 10'000; ++b) {
    const auto s = eng.shard_of(b);
    EXPECT_LT(s, 4u);
    EXPECT_EQ(s, eng.shard_of(b));  // stable
  }
}

TEST(ShardedEngine, AccountsEveryAccessExactlyOnce) {
  ShardedConfig c;
  c.engine = tree_config();
  c.shards = 4;
  ShardedEngine eng(c);
  const auto t = cad_trace(20'000);
  for (const auto& rec : t) {
    eng.access_many({&rec.block, 1});
  }
  const auto merged = eng.merged_metrics();
  EXPECT_EQ(merged.accesses, t.size());
  EXPECT_EQ(merged.demand_hits + merged.prefetch_hits + merged.misses,
            t.size());
}

// The acceptance bar from the issue: with the CAD trace block-partitioned
// across N=4 shards, every shard must reproduce bit-identically the
// metrics of a single PrefetchEngine fed that shard's sub-stream.
TEST(ShardedEngine, ShardsMatchSingleEnginePerPartitionBitIdentically) {
  const auto t = cad_trace();

  ShardedConfig c;
  c.engine = tree_config();
  c.shards = 4;
  ShardedEngine sharded(c);
  for (const auto& rec : t) {
    sharded.access_many({&rec.block, 1});
  }
  sharded.flush();

  for (std::uint32_t s = 0; s < c.shards; ++s) {
    PrefetchEngine reference(c.engine);
    for (const auto& rec : t) {
      if (sharded.shard_of(rec.block) == s) {
        reference.access_many({&rec.block, 1});
      }
    }
    const Metrics& got = sharded.shard(s).metrics();
    const Metrics& want = reference.metrics();
    EXPECT_EQ(got.accesses, want.accesses) << "shard " << s;
    EXPECT_EQ(got.demand_hits, want.demand_hits) << "shard " << s;
    EXPECT_EQ(got.prefetch_hits, want.prefetch_hits) << "shard " << s;
    EXPECT_EQ(got.misses, want.misses) << "shard " << s;
    EXPECT_EQ(got.elapsed_ms, want.elapsed_ms) << "shard " << s;
    EXPECT_EQ(got.stall_ms, want.stall_ms) << "shard " << s;
    EXPECT_EQ(got.policy.prefetches_issued, want.policy.prefetches_issued)
        << "shard " << s;
    EXPECT_EQ(got.policy.sum_prefetch_probability,
              want.policy.sum_prefetch_probability)
        << "shard " << s;
    EXPECT_EQ(got.policy.tree_nodes, want.policy.tree_nodes) << "shard " << s;
  }
}

// Property: the merged metrics are a deterministic function of the
// (trace, shard count) alone — independent of worker scheduling and of
// the order shards happen to finish in.  Run the same partitioned
// workload repeatedly under different push interleavings and demand
// bit-identical merged results (EXPECT_EQ on doubles, not EXPECT_NEAR).
TEST(ShardedEngineProperty, MergedMetricsAreDeterministic) {
  const auto t = cad_trace(30'000);
  util::Xoshiro256 rng(99);

  for (const std::uint32_t shards : {1u, 2u, 3u, 4u, 7u}) {
    ShardedConfig c;
    c.engine = tree_config(128);
    c.shards = shards;

    std::vector<Metrics> merged_runs;
    for (int run = 0; run < 3; ++run) {
      ShardedEngine eng(c);
      if (run == 0) {
        for (const auto& rec : t) {
          eng.access_many({&rec.block, 1});
        }
      } else {
        // Different producer pacing each run: random bursts with flushes
        // in between, so queue occupancy and worker interleaving differ
        // wildly from the straight-through push of run 0.  Per-shard
        // streams are FIFO either way, so the result may not change.
        std::size_t i = 0;
        while (i < t.size()) {
          const std::size_t burst =
              1 + static_cast<std::size_t>(rng.below(997));
          for (std::size_t j = 0; j < burst && i < t.size(); ++j, ++i) {
            eng.access_many({&t[i].block, 1});
          }
          if (rng.below(4) == 0) {
            eng.flush();
          }
        }
      }
      merged_runs.push_back(eng.merged_metrics());
    }

    for (std::size_t run = 1; run < merged_runs.size(); ++run) {
      const Metrics& a = merged_runs[0];
      const Metrics& b = merged_runs[run];
      EXPECT_EQ(a.accesses, b.accesses) << shards << " shards, run " << run;
      EXPECT_EQ(a.demand_hits, b.demand_hits);
      EXPECT_EQ(a.prefetch_hits, b.prefetch_hits);
      EXPECT_EQ(a.misses, b.misses);
      EXPECT_EQ(a.elapsed_ms, b.elapsed_ms);
      EXPECT_EQ(a.stall_ms, b.stall_ms);
      EXPECT_EQ(a.disk_queue_delay_ms, b.disk_queue_delay_ms);
      EXPECT_EQ(a.policy.prefetches_issued, b.policy.prefetches_issued);
      EXPECT_EQ(a.policy.sum_prefetch_probability,
                b.policy.sum_prefetch_probability);
      EXPECT_EQ(a.policy.tree_nodes, b.policy.tree_nodes);
      EXPECT_EQ(a.policy.tree_bytes, b.policy.tree_bytes);
    }
  }
}

TEST(ShardedEngine, MergeMetricsFoldsInShardIndexOrder) {
  // Double addition is not associative; merge_metrics pins the fold to
  // shard-index order so the merged value never depends on completion
  // order.  Check against a hand-rolled left fold.
  std::vector<Metrics> shards(3);
  shards[0].elapsed_ms = 0.1;
  shards[1].elapsed_ms = 1e16;
  shards[2].elapsed_ms = -1e16;
  shards[0].accesses = 1;
  shards[1].accesses = 2;
  shards[2].accesses = 3;

  const Metrics merged = merge_metrics(shards);
  EXPECT_EQ(merged.accesses, 6u);
  EXPECT_EQ(merged.elapsed_ms, (0.1 + 1e16) + -1e16);
}

TEST(ShardedEngine, SingleShardMatchesPlainEngine) {
  const auto t = cad_trace(20'000);

  ShardedConfig c;
  c.engine = tree_config();
  c.shards = 1;
  ShardedEngine sharded(c);
  for (const auto& rec : t) {
    sharded.access_many({&rec.block, 1});
  }

  PrefetchEngine plain(c.engine);
  for (const auto& rec : t) {
    plain.access_many({&rec.block, 1});
  }

  const Metrics merged = sharded.merged_metrics();
  EXPECT_EQ(merged.accesses, plain.metrics().accesses);
  EXPECT_EQ(merged.misses, plain.metrics().misses);
  EXPECT_EQ(merged.prefetch_hits, plain.metrics().prefetch_hits);
  EXPECT_EQ(merged.elapsed_ms, plain.metrics().elapsed_ms);
}

TEST(ShardedEngine, RejectsBadBatchingConfig) {
  ShardedConfig c;
  c.engine = tree_config();
  c.flush_threshold_min = 0;
  EXPECT_THROW(ShardedEngine{c}, std::invalid_argument);
  c.flush_threshold_min = 64;
  c.flush_threshold_max = 32;
  EXPECT_THROW(ShardedEngine{c}, std::invalid_argument);
  c.flush_threshold_max = 64;
  c.hot_keys = HotKeyStrategy::kRebalance;
  c.hot_key_capacity = 0;
  EXPECT_THROW(ShardedEngine{c}, std::invalid_argument);
}

// The tentpole equivalence, extended to the batched hand-off: routing a
// stream through access_many() (staging buffers, bulk ring
// transactions, bulk worker pops) must merge to exactly the metrics of
// one-block calls (push-one), for any batch split.
TEST(ShardedEngine, AccessManyMatchesPushOneBitIdentically) {
  const auto t = cad_trace(30'000);
  std::vector<trace::BlockId> blocks;
  blocks.reserve(t.size());
  for (const auto& rec : t) {
    blocks.push_back(rec.block);
  }

  ShardedConfig c;
  c.engine = tree_config(128);
  c.shards = 4;

  ShardedEngine pushed(c);
  for (const trace::BlockId block : blocks) {
    pushed.access_many({&block, 1});
  }
  const Metrics want = pushed.merged_metrics();

  util::Xoshiro256 rng(41);
  for (int split = 0; split < 3; ++split) {
    ShardedEngine batched(c);
    if (split == 0) {
      batched.access_many(blocks);
    } else {
      // Random chunking, with drain() sprinkled in so staged residue
      // takes the early-flush path too.
      std::size_t i = 0;
      while (i < blocks.size()) {
        const std::size_t n = std::min(
            blocks.size() - i, 1 + static_cast<std::size_t>(rng.below(777)));
        batched.access_many({blocks.data() + i, n});
        i += n;
        if (rng.below(5) == 0) {
          batched.drain();
        }
      }
    }
    const Metrics got = batched.merged_metrics();
    EXPECT_EQ(got.accesses, want.accesses) << "split " << split;
    EXPECT_EQ(got.demand_hits, want.demand_hits) << "split " << split;
    EXPECT_EQ(got.prefetch_hits, want.prefetch_hits) << "split " << split;
    EXPECT_EQ(got.misses, want.misses) << "split " << split;
    EXPECT_EQ(got.elapsed_ms, want.elapsed_ms) << "split " << split;
    EXPECT_EQ(got.stall_ms, want.stall_ms) << "split " << split;
    EXPECT_EQ(got.policy.prefetches_issued, want.policy.prefetches_issued);
    EXPECT_EQ(got.policy.sum_prefetch_probability,
              want.policy.sum_prefetch_probability);
    EXPECT_EQ(got.policy.tree_nodes, want.policy.tree_nodes);
  }
}

// Per-shard == single-engine equivalence holds on the batched path: the
// staging buffers and bulk transactions change hand-off timing, never
// per-shard order.
TEST(ShardedEngine, BatchedShardsMatchSingleEnginePerPartition) {
  const auto t = cad_trace(30'000);
  std::vector<trace::BlockId> blocks;
  blocks.reserve(t.size());
  for (const auto& rec : t) {
    blocks.push_back(rec.block);
  }

  ShardedConfig c;
  c.engine = tree_config();
  c.shards = 4;
  ShardedEngine sharded(c);
  sharded.access_many(blocks);
  sharded.flush();

  for (std::uint32_t s = 0; s < c.shards; ++s) {
    PrefetchEngine reference(c.engine);
    for (const trace::BlockId block : blocks) {
      if (sharded.shard_of(block) == s) {
        reference.access_many({&block, 1});
      }
    }
    const Metrics& got = sharded.shard(s).metrics();
    const Metrics& want = reference.metrics();
    EXPECT_EQ(got.accesses, want.accesses) << "shard " << s;
    EXPECT_EQ(got.misses, want.misses) << "shard " << s;
    EXPECT_EQ(got.prefetch_hits, want.prefetch_hits) << "shard " << s;
    EXPECT_EQ(got.elapsed_ms, want.elapsed_ms) << "shard " << s;
    EXPECT_EQ(got.policy.sum_prefetch_probability,
              want.policy.sum_prefetch_probability)
        << "shard " << s;
  }
}

TEST(ShardedEngine, DrainFlushesStagedResidue) {
  ShardedConfig c;
  c.engine = tree_config();
  c.shards = 2;
  ShardedEngine eng(c);
  // 5 references — far below flush_threshold_min, so they sit in the
  // staging buffers until drained.
  const std::vector<trace::BlockId> blocks{1, 2, 3, 4, 5};
  eng.access_many(blocks);
  eng.drain();  // residue reaches the rings without a full flush()
  const Metrics merged = eng.merged_metrics();
  EXPECT_EQ(merged.accesses, 5u);
}

TEST(ShardedEngine, DestructorDrainsStagedResidue) {
  // Staged residue must not be lost when the engine is torn down
  // without an explicit drain()/flush().  Indirect check: destruction
  // must not deadlock and the workers must have consumed the residue
  // (observed through a second engine replaying the same stream — the
  // real assertion is that this test terminates and ASan/TSan legs see
  // no lost writes).
  const std::vector<trace::BlockId> blocks{10, 20, 30};
  ShardedConfig c;
  c.engine = tree_config();
  c.shards = 2;
  {
    ShardedEngine eng(c);
    eng.access_many(blocks);
    // No drain(), no flush(): ~ShardedEngine must hand the residue over
    // before stopping the workers.
  }
  SUCCEED();
}

std::vector<trace::BlockId> zipf_blocks(std::uint64_t seed, int length) {
  // Half the stream on 8 hot blocks, half uniform: the skew the hot-key
  // strategies exist for.
  std::vector<trace::BlockId> out;
  out.reserve(static_cast<std::size_t>(length));
  util::Xoshiro256 rng(seed);
  for (int i = 0; i < length; ++i) {
    if (rng.below(2) == 0) {
      out.push_back(rng.below(8));
    } else {
      out.push_back(8 + rng.below(50'000));
    }
  }
  return out;
}

TEST(ShardedEngine, BatchRunsStrategyChangesOnlyFlushTiming) {
  // kBatchRuns defers hot shards' flushes to the max threshold — the
  // per-shard sub-streams are untouched, so every metric must equal the
  // kNone run bit for bit.
  const auto blocks = zipf_blocks(51, 40'000);

  ShardedConfig c;
  c.engine = tree_config(128);
  c.shards = 4;
  c.hot_key_min_count = 64;

  ShardedEngine plain(c);
  plain.access_many(blocks);
  const Metrics want = plain.merged_metrics();

  c.hot_keys = HotKeyStrategy::kBatchRuns;
  ShardedEngine batched(c);
  batched.access_many(blocks);
  const Metrics got = batched.merged_metrics();

  EXPECT_EQ(got.accesses, want.accesses);
  EXPECT_EQ(got.demand_hits, want.demand_hits);
  EXPECT_EQ(got.prefetch_hits, want.prefetch_hits);
  EXPECT_EQ(got.misses, want.misses);
  EXPECT_EQ(got.elapsed_ms, want.elapsed_ms);
  EXPECT_EQ(got.policy.sum_prefetch_probability,
            want.policy.sum_prefetch_probability);
}

TEST(ShardedEngine, RebalanceStrategyIsDeterministicAndComplete) {
  // kRebalance re-routes guaranteed-heavy keys, so merged metrics
  // legitimately differ from kNone — but the sketch is a pure function
  // of the stream prefix, so two identical runs must agree bit for bit,
  // and every access must still be accounted exactly once.
  const auto blocks = zipf_blocks(53, 40'000);

  ShardedConfig c;
  c.engine = tree_config(128);
  c.shards = 4;
  c.hot_keys = HotKeyStrategy::kRebalance;
  c.hot_key_min_count = 64;

  std::vector<Metrics> runs;
  for (int run = 0; run < 2; ++run) {
    ShardedEngine eng(c);
    eng.access_many(blocks);
    runs.push_back(eng.merged_metrics());
    EXPECT_EQ(runs.back().accesses, blocks.size());
    EXPECT_EQ(runs.back().demand_hits + runs.back().prefetch_hits +
                  runs.back().misses,
              blocks.size());
  }
  EXPECT_EQ(runs[0].misses, runs[1].misses);
  EXPECT_EQ(runs[0].prefetch_hits, runs[1].prefetch_hits);
  EXPECT_EQ(runs[0].elapsed_ms, runs[1].elapsed_ms);
  EXPECT_EQ(runs[0].policy.sum_prefetch_probability,
            runs[1].policy.sum_prefetch_probability);
}

TEST(ShardedEngine, BackpressureIsCountedNotBurned) {
  // A 2-slot ring in front of the full per-access state machine forces
  // the producer into the backpressure path constantly on a shared
  // core.  The regression contract: the bulk flush escalates through
  // util::Backoff (bounded spins, then yields — it cannot burn a core
  // unbounded, which is what let this test deadlock-watchdog before the
  // fix) and every wait increments the push_waits counter surfaced in
  // shard_stats().
  ShardedConfig c;
  c.engine = tree_config(64);
  c.shards = 2;
  c.queue_capacity = 2;
  c.flush_threshold_min = 2;
  c.flush_threshold_max = 4;
  ShardedEngine eng(c);
  const auto t = cad_trace(20'000);
  for (const auto& rec : t) {
    eng.access_many({&rec.block, 1});
  }
  eng.flush();
  std::uint64_t waits = 0;
  for (std::uint32_t s = 0; s < eng.shards(); ++s) {
    waits += eng.shard_stats(s).queue_backpressure_waits;
  }
  EXPECT_GT(waits, 0u);
  EXPECT_EQ(eng.merged_metrics().accesses, t.size());
}

TEST(ShardedEngine, RejectsBadRunRoutingConfig) {
  ShardedConfig c;
  c.engine = tree_config();
  c.run_length = 0;
  EXPECT_THROW(ShardedEngine{c}, std::invalid_argument);
  c.run_length = 64;
  c.routing = Routing::kRuns;
  c.hot_keys = HotKeyStrategy::kRebalance;  // no key affinity to rebalance
  EXPECT_THROW(ShardedEngine{c}, std::invalid_argument);
}

// Run routing deals the stream out by position, so each shard must
// reproduce bit-identically a single engine fed that shard's positional
// slices — the kRuns analogue of the shard_of() partition equivalence.
TEST(ShardedEngine, RunRoutedShardsMatchSingleEnginePerSlice) {
  const auto t = cad_trace(30'000);
  std::vector<trace::BlockId> blocks;
  blocks.reserve(t.size());
  for (const auto& rec : t) {
    blocks.push_back(rec.block);
  }

  ShardedConfig c;
  c.engine = tree_config();
  c.shards = 3;
  c.routing = Routing::kRuns;
  c.run_length = 100;
  ShardedEngine sharded(c);
  sharded.access_many(blocks);
  sharded.flush();

  for (std::uint32_t s = 0; s < c.shards; ++s) {
    PrefetchEngine reference(c.engine);
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      if ((i / c.run_length) % c.shards == s) {
        reference.access_many({&blocks[i], 1});
      }
    }
    const Metrics& got = sharded.shard(s).metrics();
    const Metrics& want = reference.metrics();
    EXPECT_EQ(got.accesses, want.accesses) << "shard " << s;
    EXPECT_EQ(got.misses, want.misses) << "shard " << s;
    EXPECT_EQ(got.prefetch_hits, want.prefetch_hits) << "shard " << s;
    EXPECT_EQ(got.elapsed_ms, want.elapsed_ms) << "shard " << s;
    EXPECT_EQ(got.policy.sum_prefetch_probability,
              want.policy.sum_prefetch_probability)
        << "shard " << s;
  }
}

// The deal is a pure function of the stream position, not of how the
// stream is split into calls: any mix of one-block and multi-block
// access_many() calls over the same stream must land every reference on
// the same shard.
TEST(ShardedEngine, RunRoutingIsStableAcrossEntryPoints) {
  const auto t = cad_trace(20'000);
  std::vector<trace::BlockId> blocks;
  blocks.reserve(t.size());
  for (const auto& rec : t) {
    blocks.push_back(rec.block);
  }

  ShardedConfig c;
  c.engine = tree_config(128);
  c.shards = 4;
  c.routing = Routing::kRuns;
  c.run_length = 37;  // deliberately misaligned with the chunking below

  ShardedEngine batched(c);
  batched.access_many(blocks);
  batched.flush();

  ShardedEngine mixed(c);
  util::Xoshiro256 rng(7);
  std::size_t i = 0;
  while (i < blocks.size()) {
    if (rng.below(2) == 0) {
      mixed.access_many({&blocks[i], 1});
      ++i;
    } else {
      const std::size_t n = std::min(
          blocks.size() - i, 1 + static_cast<std::size_t>(rng.below(100)));
      mixed.access_many({blocks.data() + i, n});
      i += n;
    }
  }
  mixed.flush();

  for (std::uint32_t s = 0; s < c.shards; ++s) {
    const Metrics& got = mixed.shard(s).metrics();
    const Metrics& want = batched.shard(s).metrics();
    EXPECT_EQ(got.accesses, want.accesses) << "shard " << s;
    EXPECT_EQ(got.misses, want.misses) << "shard " << s;
    EXPECT_EQ(got.elapsed_ms, want.elapsed_ms) << "shard " << s;
  }
}

// kBatchRuns composes with run routing (only kRebalance is rejected):
// the sketch drives flush timing, never the deal, so merged metrics
// stay bit-identical to the kNone fold.
TEST(ShardedEngine, RunRoutingComposesWithBatchRunsStrategy) {
  const auto blocks = zipf_blocks(31, 30'000);

  ShardedConfig c;
  c.engine = tree_config(128);
  c.shards = 4;
  c.routing = Routing::kRuns;
  c.run_length = 64;

  ShardedEngine plain(c);
  plain.access_many(blocks);
  const Metrics want = plain.merged_metrics();

  c.hot_keys = HotKeyStrategy::kBatchRuns;
  c.hot_key_min_count = 64;
  ShardedEngine hot(c);
  hot.access_many(blocks);
  const Metrics got = hot.merged_metrics();

  EXPECT_EQ(got.accesses, want.accesses);
  EXPECT_EQ(got.misses, want.misses);
  EXPECT_EQ(got.prefetch_hits, want.prefetch_hits);
  EXPECT_EQ(got.elapsed_ms, want.elapsed_ms);
  EXPECT_EQ(got.policy.sum_prefetch_probability,
            want.policy.sum_prefetch_probability);
}

}  // namespace
}  // namespace pfp::engine
