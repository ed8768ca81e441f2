#include "engine/prefetch_engine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "trace/trace.hpp"
#include "util/prng.hpp"

namespace pfp::engine {
namespace {

using core::policy::PolicyKind;

EngineConfig tree_config(std::size_t blocks = 64) {
  EngineConfig c;
  c.cache_blocks = blocks;
  c.policy.kind = PolicyKind::kTreeNextLimit;
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

TEST(PrefetchEngine, FirstAccessMissesThenHits) {
  PrefetchEngine eng(tree_config());
  const trace::BlockId block = 42;
  const auto miss = eng.access_many({&block, 1});
  EXPECT_EQ(miss.misses, 1u);
  EXPECT_GT(miss.latency_ms, 15.0);  // miss pays driver + disk
  const auto hit = eng.access_many({&block, 1});
  EXPECT_EQ(hit.demand_hits, 1u);
  EXPECT_LT(hit.latency_ms, 1.0);
}

TEST(PrefetchEngine, PushPathMatchesBatchReplayExactly) {
  // One block per call must be bit-identical to one call over the whole
  // stream — same cache decisions, same timing charges.
  const auto t = random_trace(5, 20'000, 500);

  PrefetchEngine batch(tree_config());
  batch.access_many(t.blocks());

  PrefetchEngine push(tree_config());
  for (const auto& rec : t) {
    push.access_many({&rec.block, 1});
  }

  EXPECT_EQ(push.metrics().accesses, batch.metrics().accesses);
  EXPECT_EQ(push.metrics().misses, batch.metrics().misses);
  EXPECT_EQ(push.metrics().demand_hits, batch.metrics().demand_hits);
  EXPECT_EQ(push.metrics().prefetch_hits, batch.metrics().prefetch_hits);
  EXPECT_EQ(push.metrics().elapsed_ms, batch.metrics().elapsed_ms);
  EXPECT_EQ(push.metrics().stall_ms, batch.metrics().stall_ms);
  EXPECT_EQ(push.metrics().policy.prefetches_issued,
            batch.metrics().policy.prefetches_issued);
  EXPECT_EQ(push.metrics().policy.sum_prefetch_probability,
            batch.metrics().policy.sum_prefetch_probability);
}

TEST(PrefetchEngine, SnapshotRestoreRoundTripsDurableState) {
  const auto t = random_trace(11, 30'000, 400);
  PrefetchEngine trained(tree_config());
  trained.access_many(t.blocks());

  std::vector<std::uint8_t> stream;
  trained.snapshot(stream);

  PrefetchEngine restored(tree_config());
  restored.restore(stream);

  // Metrics round-trip bit-identically.
  EXPECT_EQ(restored.metrics().accesses, trained.metrics().accesses);
  EXPECT_EQ(restored.metrics().misses, trained.metrics().misses);
  EXPECT_EQ(restored.metrics().prefetch_hits,
            trained.metrics().prefetch_hits);
  EXPECT_EQ(restored.metrics().elapsed_ms, trained.metrics().elapsed_ms);
  EXPECT_EQ(restored.metrics().policy.prefetches_issued,
            trained.metrics().policy.prefetches_issued);

  // Cache residency round-trips: same resident set.
  EXPECT_EQ(restored.buffer_cache().resident(),
            trained.buffer_cache().resident());
  for (const auto block : trained.buffer_cache().demand().blocks_lru_to_mru()) {
    EXPECT_TRUE(restored.buffer_cache().contains(block));
  }
}

TEST(PrefetchEngine, RestoredEngineContinuesLikeTheOriginal) {
  // Warm an engine, snapshot, restore into a fresh one, then drive both
  // with the same continuation stream: behaviour must stay identical for
  // everything the snapshot covers (tree + caches + metrics).  The
  // estimator EWMAs are transient, so cost-benefit decisions could drift
  // in principle; a short deterministic continuation stays in agreement.
  const auto warmup = random_trace(13, 20'000, 200);
  PrefetchEngine original(tree_config());
  original.access_many(warmup.blocks());

  std::vector<std::uint8_t> stream;
  original.snapshot(stream);
  PrefetchEngine resumed(tree_config());
  resumed.restore(stream);

  for (trace::BlockId b = 0; b < 50; ++b) {
    const auto a = original.access_many({&b, 1});
    const auto r = resumed.access_many({&b, 1});
    EXPECT_EQ(a.demand_hits, r.demand_hits) << "diverged at block " << b;
    EXPECT_EQ(a.prefetch_hits, r.prefetch_hits) << "diverged at block " << b;
    EXPECT_EQ(a.misses, r.misses) << "diverged at block " << b;
  }
}

TEST(PrefetchEngine, DiskTotalsNeverDecreaseAcrossRestore) {
  // The disk array is transient: a restored engine starts a fresh one,
  // and its totals must add to the restored ones, not replace them.
  EngineConfig config = tree_config();
  config.disks = 2;
  const auto t = random_trace(17, 6'000, 400);
  const std::vector<trace::BlockId> blocks = t.blocks();
  const std::span<const trace::BlockId> stream(blocks);
  std::unique_ptr<PrefetchEngine> eng =
      std::make_unique<PrefetchEngine>(config);
  std::uint64_t requests = 0;
  double queue_delay_ms = 0.0;
  for (std::size_t round = 0; round < 3; ++round) {
    for (std::size_t i = round * 2'000; i < (round + 1) * 2'000; i += 100) {
      const std::uint64_t misses = eng->metrics().misses;
      eng->access_many(stream.subspan(i, 100));
      const Metrics& m = eng->metrics();
      EXPECT_GE(m.disk_requests, requests + (m.misses - misses))
          << "round " << round << " access " << i;
      EXPECT_GE(m.disk_queue_delay_ms, queue_delay_ms)
          << "round " << round << " access " << i;
      requests = m.disk_requests;
      queue_delay_ms = m.disk_queue_delay_ms;
    }
    EXPECT_GT(queue_delay_ms, 0.0) << "two disks never queued";
    std::vector<std::uint8_t> image;
    eng->snapshot(image);
    eng = std::make_unique<PrefetchEngine>(config);
    eng->restore(image);
    EXPECT_EQ(eng->metrics().disk_requests, requests);
    EXPECT_EQ(eng->metrics().disk_queue_delay_ms, queue_delay_ms);
  }
}

TEST(PrefetchEngine, RestoreRequiresFreshEngine) {
  const std::vector<trace::BlockId> first = {1};
  const std::vector<trace::BlockId> second = {2};
  PrefetchEngine trained(tree_config());
  trained.access_many(first);

  std::vector<std::uint8_t> stream;
  trained.snapshot(stream);

  PrefetchEngine used(tree_config());
  used.access_many(second);
  EXPECT_THROW(used.restore(stream), std::runtime_error);
}

TEST(PrefetchEngine, RestoreRejectsCacheSizeMismatch) {
  const std::vector<trace::BlockId> first = {1};
  PrefetchEngine trained(tree_config(64));
  trained.access_many(first);
  std::vector<std::uint8_t> stream;
  trained.snapshot(stream);

  PrefetchEngine other(tree_config(128));
  EXPECT_THROW(other.restore(stream), std::runtime_error);
}

TEST(PrefetchEngine, RestoreRejectsGarbage) {
  const std::string text = "this is not a snapshot";
  const std::vector<std::uint8_t> garbage(text.begin(), text.end());
  PrefetchEngine eng(tree_config());
  EXPECT_THROW(eng.restore(garbage), std::runtime_error);
}

TEST(PrefetchEngine, RestoreRejectsTruncatedStream) {
  PrefetchEngine trained(tree_config());
  trained.access_many(random_trace(17, 5'000, 100).blocks());
  std::vector<std::uint8_t> stream;
  trained.snapshot(stream);

  const std::span<const std::uint8_t> truncated(stream.data(),
                                                stream.size() / 2);
  PrefetchEngine eng(tree_config());
  EXPECT_THROW(eng.restore(truncated), std::runtime_error);
}

TEST(PrefetchEngine, SnapshotWorksForTreelessPolicies) {
  EngineConfig c = tree_config();
  c.policy.kind = PolicyKind::kNextLimit;
  PrefetchEngine eng(c);
  eng.access_many(random_trace(19, 5'000, 100).blocks());

  std::vector<std::uint8_t> stream;
  eng.snapshot(stream);
  PrefetchEngine restored(c);
  restored.restore(stream);
  EXPECT_EQ(restored.metrics().misses, eng.metrics().misses);
  EXPECT_EQ(restored.buffer_cache().resident(),
            eng.buffer_cache().resident());
}

}  // namespace
}  // namespace pfp::engine
