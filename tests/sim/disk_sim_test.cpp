// Simulator behaviour under the finite-disk extension (the paper assumes
// infinite disks; engine::EngineConfig::disks relaxes that).
#include <gtest/gtest.h>

#include "sim/simulator.hpp"
#include "util/prng.hpp"

namespace pfp::sim {
namespace {

using core::policy::PolicyKind;
using trace::Trace;

Trace random_trace(std::size_t n, std::uint64_t seed) {
  Trace t("rand");
  util::Xoshiro256 rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    t.append(rng.below(10'000));
  }
  return t;
}

TEST(DiskSim, InfiniteDisksHaveNoQueueDelay) {
  engine::EngineConfig c;
  c.cache_blocks = 64;
  c.disks = 0;
  c.policy.kind = PolicyKind::kTreeNextLimit;
  const auto r = simulate(c, random_trace(10'000, 1));
  EXPECT_DOUBLE_EQ(r.metrics.disk_queue_delay_ms, 0.0);
  EXPECT_GT(r.metrics.disk_requests, 0u);
}

TEST(DiskSim, MissRatesUnaffectedByDiskCount) {
  // The disk model changes time, not cache contents: hit/miss counts are
  // identical for any disk count.
  const Trace t = random_trace(20'000, 2);
  engine::EngineConfig c;
  c.cache_blocks = 128;
  c.policy.kind = PolicyKind::kTreeNextLimit;
  c.disks = 0;
  const auto infinite = simulate(c, t);
  c.disks = 2;
  const auto two = simulate(c, t);
  EXPECT_EQ(infinite.metrics.misses, two.metrics.misses);
  EXPECT_EQ(infinite.metrics.prefetch_hits, two.metrics.prefetch_hits);
}

TEST(DiskSim, FewerDisksSlowerOrEqual) {
  const Trace t = random_trace(20'000, 3);
  engine::EngineConfig c;
  c.cache_blocks = 128;
  c.policy.kind = PolicyKind::kNextLimit;
  double last_elapsed = 0.0;
  for (const std::uint32_t disks : {1u, 4u, 16u}) {
    c.disks = disks;
    const auto r = simulate(c, t);
    if (last_elapsed > 0.0) {
      EXPECT_LE(r.metrics.elapsed_ms, last_elapsed + 1e-6)
          << disks << " disks";
    }
    last_elapsed = r.metrics.elapsed_ms;
  }
  // And infinite is at least as fast as 16.
  c.disks = 0;
  EXPECT_LE(simulate(c, t).metrics.elapsed_ms, last_elapsed + 1e-6);
}

TEST(DiskSim, SingleDiskAccruesQueueDelayUnderPrefetchTraffic) {
  // One disk + a prefetching policy: prefetches queue behind demand
  // fetches, so queue delay must appear.
  Trace t("seq");
  for (std::size_t i = 0; i < 20'000; ++i) {
    const trace::BlockId base = static_cast<trace::BlockId>(i / 50) * 1'000;
    t.append(base + i % 50);
  }
  engine::EngineConfig c;
  c.cache_blocks = 64;
  c.disks = 1;
  c.policy.kind = PolicyKind::kNextLimit;
  const auto r = simulate(c, t);
  EXPECT_GT(r.metrics.disk_queue_delay_ms, 0.0);
  EXPECT_GT(r.metrics.elapsed_ms, r.metrics.stall_ms);
}

TEST(DiskSim, PrefetchHitStallReflectsLateCompletion) {
  // With T_cpu tiny and one disk, a just-issued prefetch cannot complete
  // before the very next access: prefetch hits must stall.
  Trace t("seq");
  for (std::size_t i = 0; i < 5'000; ++i) {
    t.append(i);
  }
  engine::EngineConfig c;
  c.cache_blocks = 64;
  c.disks = 1;
  c.timing.t_cpu = 0.1;
  c.policy.kind = PolicyKind::kNextLimit;
  const auto r = simulate(c, t);
  EXPECT_GT(r.metrics.prefetch_hits, 0u);
  EXPECT_GT(r.metrics.stall_ms, 0.0);
}

}  // namespace
}  // namespace pfp::sim
