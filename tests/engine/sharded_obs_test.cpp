// ShardedEngine observability: per-shard and merged live stats, queue
// gauges, and the multi-ring Chrome trace dump.
#include <gtest/gtest.h>

#include <sstream>

#include "engine/sharded_engine.hpp"
#include "obs/engine_obs.hpp"
#include "trace/trace.hpp"
#include "util/prng.hpp"

namespace pfp::engine {
namespace {

ShardedConfig sharded_config(std::uint32_t shards) {
  ShardedConfig c;
  c.engine.cache_blocks = 64;
  c.engine.policy.kind = core::policy::PolicyKind::kTreeNextLimit;
  c.shards = shards;
  c.queue_capacity = 128;
  return c;
}

trace::Trace random_trace(std::uint64_t seed, int length, int universe) {
  trace::Trace t("t");
  util::Xoshiro256 rng(seed);
  for (int i = 0; i < length; ++i) {
    t.append(rng.below(static_cast<std::uint64_t>(universe)));
  }
  return t;
}

TEST(ShardedObs, MergedStatsMatchMergedMetrics) {
  ShardedEngine eng(sharded_config(4));
  const auto t = random_trace(21, 20'000, 600);
  for (const auto& rec : t) {
    eng.access_many({&rec.block, 1});
  }
  const auto merged = eng.merged_metrics();  // flushes first
  const auto stats = eng.stats();

  EXPECT_EQ(stats.shards, 4u);
  EXPECT_EQ(stats.accesses, merged.accesses);
  EXPECT_EQ(stats.demand_hits, merged.demand_hits);
  EXPECT_EQ(stats.prefetch_hits, merged.prefetch_hits);
  EXPECT_EQ(stats.misses, merged.misses);
  EXPECT_EQ(stats.prefetches_issued, merged.policy.prefetches_issued);
  EXPECT_EQ(stats.disk_requests, merged.disk_requests);
  EXPECT_TRUE(stats.consistent);
}

TEST(ShardedObs, MergedStatsAreAPureFunctionOfTraceAndShardCount) {
  // Re-running the same stream through a fresh sharded engine must
  // reproduce the merged counters exactly, independent of worker timing:
  // the positional deal fixes each shard's sub-stream, each shard is
  // deterministic on its sub-stream, and the merge folds in shard order.
  const auto t = random_trace(33, 30'000, 800);

  auto run = [&t]() {
    ShardedEngine eng(sharded_config(4));
    for (const auto& rec : t) {
      eng.access_many({&rec.block, 1});
    }
    eng.flush();
    return eng.stats();
  };
  const auto first = run();
  const auto second = run();

  EXPECT_EQ(first.accesses, second.accesses);
  EXPECT_EQ(first.demand_hits, second.demand_hits);
  EXPECT_EQ(first.prefetch_hits, second.prefetch_hits);
  EXPECT_EQ(first.misses, second.misses);
  EXPECT_EQ(first.prefetches_issued, second.prefetches_issued);
  EXPECT_EQ(first.prefetch_ejections, second.prefetch_ejections);
  EXPECT_EQ(first.demand_ejections, second.demand_ejections);
  EXPECT_EQ(first.disk_requests, second.disk_requests);
  EXPECT_EQ(first.elapsed_virtual_us, second.elapsed_virtual_us);
  EXPECT_EQ(first.tree_nodes, second.tree_nodes);
}

TEST(ShardedObs, PerShardViewsCarryQueueGauges) {
  ShardedEngine eng(sharded_config(2));
  const auto t = random_trace(5, 5'000, 200);
  for (const auto& rec : t) {
    eng.access_many({&rec.block, 1});
  }
  eng.flush();

  std::uint64_t accesses = 0;
  for (std::uint32_t i = 0; i < eng.shards(); ++i) {
    const auto s = eng.shard_stats(i);
    EXPECT_EQ(s.shards, 1u);
    EXPECT_EQ(s.queue_capacity, 128u);
    EXPECT_EQ(s.queue_occupancy, 0u);  // flushed: queues drained
    accesses += s.accesses;
  }
  EXPECT_EQ(accesses, t.size());
  // The merged view sums the per-shard queue capacity.
  EXPECT_EQ(eng.stats().queue_capacity, 2u * 128u);
}

TEST(ShardedObs, ChromeTraceCarriesOneLanePerShard) {
  auto config = sharded_config(2);
  config.engine.obs.trace_capacity = 512;
  ShardedEngine eng(config);
  for (const auto& rec : random_trace(17, 5'000, 200)) {
    eng.access_many({&rec.block, 1});
  }
  std::ostringstream json;
  eng.write_chrome_trace(json);
  EXPECT_NE(json.str().find("\"pid\":0"), std::string::npos);
  EXPECT_NE(json.str().find("\"pid\":1"), std::string::npos);
  EXPECT_GT(eng.stats().trace_recorded, 0u);
}

TEST(ShardedObs, BackpressureWaitsSurfaceInMergedView) {
  // A tiny queue forces the producer to wait at least occasionally on a
  // 1-shard engine driven with many references.
  ShardedConfig config = sharded_config(1);
  config.queue_capacity = 2;
  ShardedEngine eng(config);
  for (const auto& rec : random_trace(2, 20'000, 400)) {
    eng.access_many({&rec.block, 1});
  }
  eng.flush();
  EXPECT_EQ(eng.stats().accesses, 20'000u);
  // Waits are timing-dependent; the gauge just has to be readable and
  // monotone, so only sanity-check that the field is plumbed through.
  EXPECT_EQ(eng.shard_stats(0).queue_backpressure_waits,
            eng.stats().queue_backpressure_waits);
}

}  // namespace
}  // namespace pfp::engine
