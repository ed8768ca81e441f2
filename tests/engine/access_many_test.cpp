// The access_many() bit-identity contract: the batched loop hoists
// per-access setup (context build, dispatch resolution, observability
// publish) to the call boundary, so however a stream is split into calls
// — one block per call (push-one), fixed chunks, one whole-trace call —
// the metrics must be the same: same decisions, same timing charges,
// down to the last double.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "engine/prefetch_engine.hpp"
#include "sim/simulator.hpp"
#include "trace/trace.hpp"
#include "util/prng.hpp"

namespace pfp::engine {
namespace {

using core::policy::PolicyKind;

EngineConfig config_for(PolicyKind kind, std::size_t blocks = 64) {
  EngineConfig c;
  c.cache_blocks = blocks;
  c.policy.kind = kind;
  return c;
}

std::vector<trace::BlockId> random_blocks(std::uint64_t seed, int length,
                                          int universe) {
  std::vector<trace::BlockId> out;
  out.reserve(static_cast<std::size_t>(length));
  util::Xoshiro256 rng(seed);
  for (int i = 0; i < length; ++i) {
    out.push_back(rng.below(static_cast<std::uint64_t>(universe)));
  }
  return out;
}

trace::Trace as_trace(const std::vector<trace::BlockId>& blocks) {
  trace::Trace t("t");
  for (const trace::BlockId block : blocks) {
    t.append(block);
  }
  return t;
}

/// Feeds `blocks` in calls of `chunk` blocks, passing each call the rest
/// of the stream as look-ahead (what the oracle needs to see past the
/// call boundary).
void feed_in_chunks(PrefetchEngine& eng,
                    std::span<const trace::BlockId> blocks,
                    std::size_t chunk) {
  while (!blocks.empty()) {
    const std::size_t n = std::min(chunk, blocks.size());
    eng.access_many(blocks.first(n), blocks.subspan(n));
    blocks = blocks.subspan(n);
  }
}

void expect_identical(const Metrics& a, const Metrics& b) {
  EXPECT_EQ(a.accesses, b.accesses);
  EXPECT_EQ(a.demand_hits, b.demand_hits);
  EXPECT_EQ(a.prefetch_hits, b.prefetch_hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.elapsed_ms, b.elapsed_ms);
  EXPECT_EQ(a.stall_ms, b.stall_ms);
  EXPECT_EQ(a.disk_queue_delay_ms, b.disk_queue_delay_ms);
  EXPECT_EQ(a.disk_requests, b.disk_requests);
  EXPECT_EQ(a.policy.prefetches_issued, b.policy.prefetches_issued);
  EXPECT_EQ(a.policy.obl_prefetches_issued, b.policy.obl_prefetches_issued);
  EXPECT_EQ(a.policy.tree_prefetches_issued,
            b.policy.tree_prefetches_issued);
  EXPECT_EQ(a.policy.sum_prefetch_probability,
            b.policy.sum_prefetch_probability);
  EXPECT_EQ(a.policy.candidates_chosen, b.policy.candidates_chosen);
  EXPECT_EQ(a.policy.candidates_already_cached,
            b.policy.candidates_already_cached);
  EXPECT_EQ(a.policy.prefetch_ejections, b.policy.prefetch_ejections);
  EXPECT_EQ(a.policy.demand_ejections, b.policy.demand_ejections);
  EXPECT_EQ(a.policy.predictable, b.policy.predictable);
  EXPECT_EQ(a.policy.predictable_uncached, b.policy.predictable_uncached);
  EXPECT_EQ(a.policy.lvc_opportunities, b.policy.lvc_opportunities);
  EXPECT_EQ(a.policy.lvc_followed, b.policy.lvc_followed);
  EXPECT_EQ(a.policy.lvc_checks, b.policy.lvc_checks);
  EXPECT_EQ(a.policy.lvc_cached, b.policy.lvc_cached);
  EXPECT_EQ(a.policy.tree_nodes, b.policy.tree_nodes);
}

TEST(AccessMany, MatchesPushOneExactlyAcrossPolicies) {
  const auto blocks = random_blocks(3, 20'000, 400);
  for (const PolicyKind kind :
       {PolicyKind::kNoPrefetch, PolicyKind::kNextLimit, PolicyKind::kTree,
        PolicyKind::kTreeNextLimit, PolicyKind::kTreeLvc,
        PolicyKind::kTreeThreshold, PolicyKind::kTreeChildren,
        PolicyKind::kTreeAdaptive}) {
    SCOPED_TRACE(static_cast<int>(kind));
    PrefetchEngine batched(config_for(kind));
    batched.access_many(blocks);

    PrefetchEngine one(config_for(kind));
    for (const trace::BlockId block : blocks) {
      one.access_many({&block, 1});
    }
    expect_identical(batched.metrics(), one.metrics());
  }
}

TEST(AccessMany, BatchSizeIsInvariant) {
  // Splitting the stream into runs of any size must not change a single
  // metric: period numbering continues across calls because it rides
  // the running access counter, not the batch offset.
  const auto blocks = random_blocks(11, 15'000, 300);
  PrefetchEngine whole(config_for(PolicyKind::kTreeNextLimit));
  whole.access_many(blocks);

  for (const std::size_t chunk : {std::size_t{1}, std::size_t{3},
                                  std::size_t{64}, std::size_t{1000}}) {
    SCOPED_TRACE(chunk);
    PrefetchEngine split(config_for(PolicyKind::kTreeNextLimit));
    std::span<const trace::BlockId> rest(blocks);
    while (!rest.empty()) {
      const std::size_t n = std::min(chunk, rest.size());
      split.access_many(rest.first(n));
      rest = rest.subspan(n);
    }
    expect_identical(split.metrics(), whole.metrics());
  }
}

TEST(AccessMany, MatchesRunTraceOnFreshEngine) {
  // sim::Simulator::run replays a trace as one access_many over its
  // blocks; the replay driver and the engine fed directly must agree,
  // the oracle included (it sees the next block inside the batch).
  const auto blocks = random_blocks(5, 20'000, 500);
  const auto t = as_trace(blocks);
  for (const PolicyKind kind :
       {PolicyKind::kTreeNextLimit, PolicyKind::kPerfectSelector}) {
    SCOPED_TRACE(static_cast<int>(kind));
    const sim::Result replayed = sim::simulate(config_for(kind), t);

    PrefetchEngine batched(config_for(kind));
    batched.access_many(blocks);

    expect_identical(replayed.metrics, batched.metrics());
  }
}

TEST(AccessMany, BatchResultSumsTheBatch) {
  const auto blocks = random_blocks(7, 10'000, 250);

  PrefetchEngine one(config_for(PolicyKind::kTreeNextLimit));
  std::uint64_t demand_hits = 0;
  std::uint64_t prefetch_hits = 0;
  std::uint64_t misses = 0;
  double latency_ms = 0.0;
  for (const trace::BlockId block : blocks) {
    const BatchResult r = one.access_many({&block, 1});
    ASSERT_EQ(r.demand_hits + r.prefetch_hits + r.misses, 1u);
    demand_hits += r.demand_hits;
    prefetch_hits += r.prefetch_hits;
    misses += r.misses;
    latency_ms += r.latency_ms;
  }

  PrefetchEngine batched(config_for(PolicyKind::kTreeNextLimit));
  const BatchResult b = batched.access_many(blocks);
  EXPECT_EQ(b.demand_hits, demand_hits);
  EXPECT_EQ(b.prefetch_hits, prefetch_hits);
  EXPECT_EQ(b.misses, misses);
  EXPECT_NEAR(b.latency_ms, latency_ms, 1e-6);
  EXPECT_EQ(b.demand_hits + b.prefetch_hits + b.misses, blocks.size());
}

TEST(AccessMany, WarmEngineStillMatchesPushOne) {
  // A non-fresh engine numbers periods from its running access counter;
  // the batched path must keep doing exactly that.
  const auto warmup = random_blocks(13, 5'000, 200);
  const auto blocks = random_blocks(17, 10'000, 200);

  PrefetchEngine batched(config_for(PolicyKind::kTreeNextLimit));
  batched.access_many(warmup);
  batched.access_many(blocks);

  PrefetchEngine one(config_for(PolicyKind::kTreeNextLimit));
  for (const trace::BlockId block : warmup) {
    one.access_many({&block, 1});
  }
  for (const trace::BlockId block : blocks) {
    one.access_many({&block, 1});
  }
  expect_identical(batched.metrics(), one.metrics());
}

TEST(AccessMany, OraclePolicyReplayUnchanged) {
  // The oracle reads only the next reference: blocks[i + 1] inside a
  // call, then lookahead.front().  Replaying in chunks that each pass
  // their successor as look-ahead must bit-match one whole-trace call,
  // whatever the chunk size; the oracle must actually have prefetched.
  const auto blocks = random_blocks(29, 8'000, 200);
  PrefetchEngine whole(config_for(PolicyKind::kPerfectSelector));
  whole.access_many(blocks);
  ASSERT_GT(whole.metrics().prefetch_hits, 0u);

  for (const std::size_t chunk :
       {std::size_t{1}, std::size_t{7}, std::size_t{256}}) {
    SCOPED_TRACE(chunk);
    PrefetchEngine chunked(config_for(PolicyKind::kPerfectSelector));
    feed_in_chunks(chunked, blocks, chunk);
    expect_identical(chunked.metrics(), whole.metrics());
  }
}

TEST(AccessMany, OracleWithoutLookaheadStopsAtTheBatchEnd) {
  // Without look-ahead the last access of each call has no known
  // successor, so one-block calls give the oracle nothing to act on.
  const auto blocks = random_blocks(31, 4'000, 100);
  PrefetchEngine blind(config_for(PolicyKind::kPerfectSelector));
  for (const trace::BlockId block : blocks) {
    blind.access_many({&block, 1});
  }
  EXPECT_EQ(blind.metrics().policy.prefetches_issued, 0u);
  EXPECT_EQ(blind.metrics().prefetch_hits, 0u);
}

}  // namespace
}  // namespace pfp::engine
