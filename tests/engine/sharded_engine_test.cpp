#include "engine/sharded_engine.hpp"

#include <gtest/gtest.h>

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <thread>
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

// The slice hand-off is chunking-blind: routing a stream through
// access_many() in large spans (bulk ring transactions, bulk worker pops)
// must merge to exactly the metrics of one-block calls (push-one), for
// any batch split.
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
      // Random chunking, with flush() sprinkled in so the producer also
      // waits on draining rings mid-stream.
      std::size_t i = 0;
      while (i < blocks.size()) {
        const std::size_t n = std::min(
            blocks.size() - i, 1 + static_cast<std::size_t>(rng.below(777)));
        batched.access_many({blocks.data() + i, n});
        i += n;
        if (rng.below(5) == 0) {
          batched.flush();
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

TEST(ShardedEngine, BackpressureIsCountedNotBurned) {
  // A 2-slot ring in front of the full per-access state machine forces
  // the producer into the backpressure path constantly.  The contract:
  // the producer sleeps on the shard's done bell instead of spinning (a
  // spinning producer could starve the worker it waits for on a shared
  // core), and every wait increments the push_waits counter surfaced in
  // shard_stats().
  ShardedConfig c;
  c.engine = tree_config(64);
  c.shards = 2;
  c.queue_capacity = 2;
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
}

// Run routing deals the stream out by position, so each shard must
// reproduce bit-identically a single engine fed that shard's positional
// slices.
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
// the same shard.  The small-ring cases hold fewer slots than a run and
// use chunks that straddle run boundaries, so a slice is routinely
// accepted only in part and finished after the worker makes room.
TEST(ShardedEngine, RunRoutingIsStableAcrossEntryPoints) {
  const auto t = cad_trace(20'000);
  std::vector<trace::BlockId> blocks;
  blocks.reserve(t.size());
  for (const auto& rec : t) {
    blocks.push_back(rec.block);
  }

  struct Case {
    std::size_t queue_capacity;
    std::size_t run_length;  // deliberately misaligned with the chunking
    std::uint64_t max_chunk;
  };
  for (const Case& k : {Case{4096, 37, 100}, Case{8, 37, 100},
                        Case{16, 100, 350}, Case{2, 5, 23}}) {
    ShardedConfig c;
    c.engine = tree_config(128);
    c.shards = 4;
    c.run_length = k.run_length;

    // Reference: one span through rings that never bind.
    c.queue_capacity = 4096;
    ShardedEngine batched(c);
    batched.access_many(blocks);
    batched.flush();

    c.queue_capacity = k.queue_capacity;
    ShardedEngine mixed(c);
    util::Xoshiro256 rng(7);
    std::size_t i = 0;
    while (i < blocks.size()) {
      if (rng.below(2) == 0) {
        mixed.access_many({&blocks[i], 1});
        ++i;
      } else {
        const std::size_t n = std::min(
            blocks.size() - i,
            1 + static_cast<std::size_t>(rng.below(k.max_chunk)));
        mixed.access_many({blocks.data() + i, n});
        i += n;
      }
    }
    mixed.flush();

    for (std::uint32_t s = 0; s < c.shards; ++s) {
      const Metrics& got = mixed.shard(s).metrics();
      const Metrics& want = batched.shard(s).metrics();
      EXPECT_EQ(got.accesses, want.accesses)
          << "ring " << k.queue_capacity << ", run " << k.run_length
          << ", shard " << s;
      EXPECT_EQ(got.misses, want.misses) << "shard " << s;
      EXPECT_EQ(got.elapsed_ms, want.elapsed_ms) << "shard " << s;
    }
  }
}

// An idle engine parks its workers on their bells: four shards with
// nothing to do may not burn more than a sliver of CPU (a spinning
// worker alone would burn the whole 500 ms).
TEST(ShardedEngine, IdleShardsSleep) {
  ShardedConfig c;
  c.engine = tree_config();
  c.shards = 4;
  ShardedEngine eng(c);
  const std::vector<trace::BlockId> blocks{1, 2, 3, 4, 5};
  eng.access_many(blocks);
  eng.flush();  // every worker has run and gone idle

  const auto process_cpu_ms = [] {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 +
           static_cast<double>(ts.tv_nsec) / 1e6;
  };
  const double before = process_cpu_ms();
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  const double burned = process_cpu_ms() - before;
  EXPECT_LE(burned, 25.0);
}

}  // namespace
}  // namespace pfp::engine
