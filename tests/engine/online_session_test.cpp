// Online use of the engine: a host that discovers its reference stream
// as it runs feeds it one access at a time through engine::Tenant, whose
// access() is a one-element access_many() projected onto its outcome.
#include <gtest/gtest.h>

#include <stdexcept>

#include "engine/tenant_registry.hpp"
#include "sim/simulator.hpp"
#include "util/prng.hpp"

namespace pfp::engine {
namespace {

using core::policy::PolicyKind;

TenantConfig tree_config(std::size_t blocks = 64) {
  TenantConfig c;
  c.engine.cache_blocks = blocks;
  c.engine.policy.kind = PolicyKind::kTreeNextLimit;
  return c;
}

TEST(OnlineSession, FirstAccessMisses) {
  Tenant session(tree_config());
  util::MutexLock lock(session.mu());
  const auto r = session.access(42);
  EXPECT_EQ(r.outcome, Outcome::kMiss);
  // A miss pays driver + disk (+ hit time charged as part of the period).
  EXPECT_GT(r.latency_ms, 15.0);
}

TEST(OnlineSession, RepeatAccessHitsCheaply) {
  Tenant session(tree_config());
  util::MutexLock lock(session.mu());
  session.access(42);
  const auto r = session.access(42);
  EXPECT_EQ(r.outcome, Outcome::kDemandHit);
  EXPECT_LT(r.latency_ms, 1.0);
}

TEST(OnlineSession, SequentialStreamGetsPrefetchHits) {
  Tenant session(tree_config());
  util::MutexLock lock(session.mu());
  bool saw_prefetch_hit = false;
  for (trace::BlockId b = 0; b < 200; ++b) {
    const auto r = session.access(b);
    saw_prefetch_hit |= r.outcome == Outcome::kPrefetchHit;
  }
  EXPECT_TRUE(saw_prefetch_hit);
  EXPECT_GT(session.metrics().prefetch_hits, 0u);
}

TEST(OnlineSession, MatchesBatchSimulatorExactly) {
  // Feeding a trace record-by-record must produce the same cache
  // behaviour as the batch simulator.
  trace::Trace t("t");
  util::Xoshiro256 rng(5);
  for (int i = 0; i < 20'000; ++i) {
    t.append(rng.below(500));
  }
  const auto batch = sim::simulate(tree_config().engine, t);

  Tenant session(tree_config());
  util::MutexLock lock(session.mu());
  for (const auto& rec : t) {
    session.access(rec.block);
  }
  EXPECT_EQ(session.metrics().misses, batch.metrics.misses);
  EXPECT_EQ(session.metrics().prefetch_hits, batch.metrics.prefetch_hits);
  EXPECT_EQ(session.metrics().policy.prefetches_issued,
            batch.metrics.policy.prefetches_issued);
}

TEST(OnlineSession, RejectsOraclePolicies) {
  // The oracle needs the future stream, which an online host never has;
  // plain and sharded tenants both refuse it at construction.
  TenantConfig c = tree_config();
  c.engine.policy.kind = PolicyKind::kPerfectSelector;
  EXPECT_THROW(Tenant{c}, std::invalid_argument);
  c.shards = 2;
  EXPECT_THROW(Tenant{c}, std::invalid_argument);
}

TEST(OnlineSession, LatencySumsToElapsedMinusCompute) {
  const TenantConfig c = tree_config();
  Tenant session(c);
  util::MutexLock lock(session.mu());
  double latency_total = 0.0;
  for (trace::BlockId b = 0; b < 500; ++b) {
    latency_total += session.access(b % 100).latency_ms;
  }
  const double expected =
      session.metrics().elapsed_ms - 500.0 * c.engine.timing.t_cpu;
  // latency excludes T_cpu but includes everything else the model
  // charges (hit time, driver overheads, stalls).
  EXPECT_NEAR(latency_total, expected, 1e-6);
}

}  // namespace
}  // namespace pfp::engine
