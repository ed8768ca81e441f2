#include "core/policy/tree_adaptive.hpp"

#include <gtest/gtest.h>

#include "core/policy/factory.hpp"
#include "sim/simulator.hpp"
#include "util/prng.hpp"

namespace pfp::core::policy {
namespace {

TEST(TreeAdaptive, FactoryIntegration) {
  PolicySpec spec;
  spec.kind = PolicyKind::kTreeAdaptive;
  const auto p = make_prefetcher(spec);
  EXPECT_EQ(p->name(), "tree-adaptive");
  EXPECT_EQ(kind_from_name("tree-adaptive"), PolicyKind::kTreeAdaptive);
}

TEST(TreeAdaptive, FloorStartsAtInitial) {
  AdaptiveConfig config;
  config.initial_floor = 0.03;
  TreeAdaptive policy(tree::TreeConfig{}, costben::PredictLimits{},
                      ControllerConfig{}, config);
  EXPECT_DOUBLE_EQ(policy.probability_floor(), 0.03);
}

TEST(TreeAdaptive, RejectsInvalidConfig) {
  AdaptiveConfig bad;
  bad.min_floor = 0.5;
  bad.initial_floor = 0.1;  // min > initial
  EXPECT_DEATH(TreeAdaptive(tree::TreeConfig{}, costben::PredictLimits{},
                            ControllerConfig{}, bad),
               "precondition");
}

TEST(TreeAdaptive, FloorTightensOnNoisyWorkload) {
  // Mostly-random accesses: tree prefetches rarely hit, h collapses, the
  // floor must rise from its initial value.
  trace::Trace t("noise");
  util::Xoshiro256 rng(1);
  // Weak repeated pattern so some prefetching happens at all.
  std::vector<trace::BlockId> pattern;
  for (int i = 0; i < 10; ++i) {
    pattern.push_back(rng.below(1'000));
  }
  std::size_t pos = 0;
  for (int i = 0; i < 30'000; ++i) {
    if (rng.bernoulli(0.8)) {
      t.append(rng.below(10'000'000));
    } else {
      t.append(pattern[pos]);
      pos = (pos + 1) % pattern.size();
    }
  }
  engine::EngineConfig c;
  c.cache_blocks = 64;
  c.policy.kind = PolicyKind::kTreeAdaptive;
  const auto adaptive = sim::simulate(c, t);
  c.policy.kind = PolicyKind::kTree;
  const auto plain = sim::simulate(c, t);
  // The whole point: fewer wasted prefetches than plain tree on noise.
  EXPECT_LT(adaptive.metrics.policy.prefetches_issued,
            plain.metrics.policy.prefetches_issued);
  // And no meaningful miss-rate regression.
  EXPECT_LE(adaptive.metrics.miss_rate(), plain.metrics.miss_rate() + 0.02);
}

TEST(TreeAdaptive, MatchesTreeOnCleanPattern) {
  // High-precision regime: h stays high, the floor relaxes to its
  // minimum, behaviour converges to plain tree.
  trace::Trace t("clean");
  util::SplitMix64 sm(7);
  std::vector<trace::BlockId> pattern;
  for (int i = 0; i < 40; ++i) {
    pattern.push_back(sm.next() >> 20);
  }
  for (int r = 0; r < 300; ++r) {
    for (const auto b : pattern) {
      t.append(b);
    }
  }
  engine::EngineConfig c;
  c.cache_blocks = 16;
  c.policy.kind = PolicyKind::kTreeAdaptive;
  const auto adaptive = sim::simulate(c, t);
  c.policy.kind = PolicyKind::kTree;
  const auto plain = sim::simulate(c, t);
  EXPECT_NEAR(adaptive.metrics.miss_rate(), plain.metrics.miss_rate(),
              0.05);
}

TEST(TreeAdaptive, DeterministicRuns) {
  trace::Trace t("d");
  util::Xoshiro256 rng(9);
  for (int i = 0; i < 5'000; ++i) {
    t.append(rng.below(300));
  }
  engine::EngineConfig c;
  c.cache_blocks = 64;
  c.policy.kind = PolicyKind::kTreeAdaptive;
  const auto a = sim::simulate(c, t);
  const auto b = sim::simulate(c, t);
  EXPECT_EQ(a.metrics.misses, b.metrics.misses);
}

}  // namespace
}  // namespace pfp::core::policy
