// Thread-safety stress for the sharded engine; run under TSan in CI (the
// sanitize workflow leg selects it by the "Sharded" test-name pattern).
// The nightly leg sets PFP_STRESS_SCALE=10 to multiply every workload
// and iteration count without a separate test binary.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <thread>
#include <vector>

#include "engine/sharded_engine.hpp"
#include "trace/gen_cad.hpp"

namespace pfp::engine {
namespace {

using core::policy::PolicyKind;

std::uint64_t stress_scale() {
  static const std::uint64_t scale = [] {
    const char* env = std::getenv("PFP_STRESS_SCALE");
    if (env == nullptr) {
      return std::uint64_t{1};
    }
    const long parsed = std::atol(env);
    return parsed >= 1 ? static_cast<std::uint64_t>(parsed)
                       : std::uint64_t{1};
  }();
  return scale;
}

ShardedConfig stress_config(std::uint32_t shards) {
  ShardedConfig c;
  c.engine.cache_blocks = 128;
  c.engine.policy.kind = PolicyKind::kTreeNextLimit;
  c.shards = shards;
  c.queue_capacity = 256;  // small ring: exercise the full/backpressure path
  return c;
}

trace::Trace cad_trace(std::uint64_t references) {
  trace::CadGenerator::Config cfg;
  cfg.references = references;
  return trace::CadGenerator(cfg).generate();
}

TEST(ShardedStress, FourShardCadTraceWithInterleavedFlushes) {
  const auto t = cad_trace(100'000 * stress_scale());
  ShardedEngine eng(stress_config(4));
  for (std::size_t i = 0; i < t.size(); ++i) {
    eng.access_many({&t[i].block, 1});
    if (i % 9973 == 0) {
      eng.flush();  // racing flushes against busy workers
    }
  }
  const auto merged = eng.merged_metrics();
  EXPECT_EQ(merged.accesses, t.size());
  EXPECT_EQ(merged.demand_hits + merged.prefetch_hits + merged.misses,
            t.size());
}

TEST(ShardedStress, DestructionDrainsQueuedWork) {
  // Destroy the engine with requests still queued; the workers must
  // drain them (no lost accesses, no use-after-free on the queues).
  const auto t = cad_trace(30'000 * stress_scale());
  for (std::uint64_t round = 0; round < 5 * stress_scale(); ++round) {
    ShardedEngine eng(stress_config(4));
    for (const auto& rec : t) {
      eng.access_many({&rec.block, 1});
    }
    // No flush: destructor must drain.
  }
  SUCCEED();
}

TEST(ShardedStress, RepeatedConstructionTeardown) {
  // Thread-pool spin-up/tear-down churn with tiny work batches.
  const auto t = cad_trace(2'000 * stress_scale());
  for (std::uint64_t round = 0; round < 20 * stress_scale(); ++round) {
    ShardedEngine eng(stress_config(static_cast<std::uint32_t>(1 + round % 4)));
    for (const auto& rec : t) {
      eng.access_many({&rec.block, 1});
    }
    const auto merged = eng.merged_metrics();
    ASSERT_EQ(merged.accesses, t.size());
  }
}

TEST(ShardedStress, MetricsReadsAfterFlushAreStable) {
  const auto t = cad_trace(50'000 * stress_scale());
  ShardedEngine eng(stress_config(4));
  std::size_t i = 0;
  for (const auto& rec : t) {
    eng.access_many({&rec.block, 1});
    if (++i % 10'000 == 0) {
      eng.flush();
      // Post-flush reads must be race-free and self-consistent.
      std::uint64_t sum = 0;
      for (std::uint32_t s = 0; s < eng.shards(); ++s) {
        sum += eng.shard(s).metrics().accesses;
      }
      ASSERT_EQ(sum, i);
    }
  }
}

TEST(ShardedStress, BulkHandoffWithInterleavedFlushes) {
  // The slice hand-off under TSan: bulk try_push_n racing bulk worker
  // pops (try_pop_n) on rings smaller than a run, with flush() mixed in
  // mid-stream.
  const auto t = cad_trace(100'000 * stress_scale());
  std::vector<trace::BlockId> blocks;
  blocks.reserve(t.size());
  for (const auto& rec : t) {
    blocks.push_back(rec.block);
  }
  ShardedEngine eng(stress_config(4));
  std::size_t i = 0;
  std::size_t round = 0;
  while (i < blocks.size()) {
    const std::size_t n = std::min<std::size_t>(blocks.size() - i,
                                                1 + (round * 131) % 997);
    eng.access_many({blocks.data() + i, n});
    i += n;
    if (++round % 61 == 0) {
      eng.flush();
    }
  }
  const auto merged = eng.merged_metrics();
  EXPECT_EQ(merged.accesses, blocks.size());
  EXPECT_EQ(merged.demand_hits + merged.prefetch_hits + merged.misses,
            blocks.size());
}

TEST(ShardedStress, BulkDestructionDrainsQueuedWork) {
  // Tear down right after one whole-span hand-off, with the rings still
  // full: the stop must wake every worker and each must drain its ring
  // first.
  const auto t = cad_trace(30'000 * stress_scale());
  std::vector<trace::BlockId> blocks;
  blocks.reserve(t.size());
  for (const auto& rec : t) {
    blocks.push_back(rec.block);
  }
  for (std::uint64_t round = 0; round < 5 * stress_scale(); ++round) {
    ShardedEngine eng(stress_config(4));
    eng.access_many(blocks);
    // No flush: the destructor must let the workers drain.
  }
  SUCCEED();
}

TEST(ShardedStress, RunRoutingUnderLoad) {
  // The positional deal racing bulk worker pops through small rings,
  // with a run length misaligned with both the chunking and the ring
  // size; completeness is the assertion, TSan the real check.
  const auto t = cad_trace(100'000 * stress_scale());
  std::vector<trace::BlockId> blocks;
  blocks.reserve(t.size());
  for (const auto& rec : t) {
    blocks.push_back(rec.block);
  }
  ShardedConfig c = stress_config(4);
  c.run_length = 193;
  ShardedEngine eng(c);
  std::size_t i = 0;
  std::size_t round = 0;
  while (i < blocks.size()) {
    const std::size_t n = std::min<std::size_t>(blocks.size() - i,
                                                1 + (round * 89) % 733);
    eng.access_many({blocks.data() + i, n});
    i += n;
    if (++round % 23 == 0) {
      eng.flush();
    }
  }
  const auto merged = eng.merged_metrics();
  EXPECT_EQ(merged.accesses, blocks.size());
  EXPECT_EQ(merged.demand_hits + merged.prefetch_hits + merged.misses,
            blocks.size());
}

}  // namespace
}  // namespace pfp::engine
