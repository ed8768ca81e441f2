#include "core/policy/prob_graph.hpp"

#include <gtest/gtest.h>

#include "core/policy/factory.hpp"
#include "policy_harness.hpp"
#include "sim/simulator.hpp"
#include "util/prng.hpp"

namespace pfp::core::policy {
namespace {

using testing::Harness;

Context& drive(ProbGraph& policy, Harness& h,
               std::initializer_list<BlockId> blocks) {
  for (const BlockId b : blocks) {
    policy.on_access(b, AccessOutcome::kMiss, h.ctx);
  }
  return h.ctx;
}

TEST(ProbGraph, LearnsTransitionProbabilities) {
  Harness h(64);
  ProbGraph policy;
  drive(policy, h, {1u, 2u, 1u, 2u, 1u, 3u});
  // From 1: saw 2 twice and 3 once.
  EXPECT_NEAR(policy.successor_probability(1, 2), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(policy.successor_probability(1, 3), 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(policy.successor_probability(2, 3), 0.0);
  EXPECT_DOUBLE_EQ(policy.successor_probability(99, 1), 0.0);
}

TEST(ProbGraph, PrefetchesLikelySuccessor) {
  Harness h(64);
  ProbGraph policy;
  drive(policy, h, {1u, 2u, 1u, 2u, 1u});
  // After the final access of 1, successor 2 has p = 1.0 >= cutoff and
  // must have been prefetched.
  EXPECT_TRUE(h.cache.prefetch().contains(2));
  EXPECT_GT(h.metrics.prefetches_issued, 0u);
}

TEST(ProbGraph, RespectsProbabilityCutoff) {
  ProbGraphConfig config;
  config.min_probability = 0.9;
  Harness h(64);
  ProbGraph policy(config);
  // Train 1 -> {2,3} at 50% each (drop anything prefetched while the
  // early estimate was still 100%), then check the final access issues
  // nothing: both successors are below the 0.9 cutoff.
  drive(policy, h, {1u, 2u, 1u, 3u});
  for (const BlockId b : {2u, 3u}) {
    if (h.cache.prefetch().contains(b)) {
      h.cache.prefetch().remove(b);
    }
  }
  policy.on_access(1, AccessOutcome::kMiss, h.ctx);
  EXPECT_FALSE(h.cache.prefetch().contains(2));
  EXPECT_FALSE(h.cache.prefetch().contains(3));
}

TEST(ProbGraph, CapsSuccessorsPerBlock) {
  ProbGraphConfig config;
  config.max_successors = 2;
  Harness h(64);
  ProbGraph policy(config);
  // Four different successors of block 1; only 2 can be retained.
  drive(policy, h, {1u, 10u, 1u, 11u, 1u, 12u, 1u, 13u});
  int known = 0;
  for (const BlockId s : {10u, 11u, 12u, 13u}) {
    if (policy.successor_probability(1, s) > 0.0) {
      ++known;
    }
  }
  EXPECT_LE(known, 2);
  // Tracked = blocks with observed departures: 1, 10, 11, 12 (13 is the
  // final access and never departs).
  EXPECT_EQ(policy.tracked_blocks(), 4u);
}

TEST(ProbGraph, FactoryIntegration) {
  PolicySpec spec;
  spec.kind = PolicyKind::kProbGraph;
  const auto p = make_prefetcher(spec);
  EXPECT_EQ(p->name(), "prob-graph");
  EXPECT_EQ(kind_from_name("prob-graph"), PolicyKind::kProbGraph);
}

TEST(ProbGraph, BeatsNothingOnAlternatingPattern) {
  // a-b-a-b...: first-order prediction is perfect.
  trace::Trace t("ab");
  for (int i = 0; i < 2'000; ++i) {
    t.append(i % 2 == 0 ? 100 : 200);
  }
  engine::EngineConfig config;
  config.cache_blocks = 4;
  config.policy.kind = PolicyKind::kProbGraph;
  const auto r = sim::simulate(config, t);
  EXPECT_LT(r.metrics.miss_rate(), 0.05);
}

TEST(ProbGraph, LosesToTreeOnInterleavedStreams) {
  // Two deterministic streams interleaved: first-order context confuses
  // them where deeper LZ context does not (after sufficient training).
  trace::Trace t("interleaved");
  util::Xoshiro256 rng(3);
  std::vector<BlockId> s1;
  std::vector<BlockId> s2;
  for (int i = 0; i < 16; ++i) {
    s1.push_back(1'000 + rng.below(10'000));
    s2.push_back(100'000 + rng.below(10'000));
  }
  std::size_t p1 = 0;
  std::size_t p2 = 0;
  for (int i = 0; i < 20'000; ++i) {
    if (rng.bernoulli(0.5)) {
      t.append(s1[p1]);
      p1 = (p1 + 1) % s1.size();
    } else {
      t.append(s2[p2]);
      p2 = (p2 + 1) % s2.size();
    }
  }
  engine::EngineConfig config;
  config.cache_blocks = 16;  // smaller than the combined pattern
  config.policy.kind = PolicyKind::kProbGraph;
  const auto graph = sim::simulate(config, t);
  config.policy.kind = PolicyKind::kTree;
  const auto tree = sim::simulate(config, t);
  // Both learn something, but the graph's one-block context cannot
  // separate the streams as well.
  EXPECT_LE(tree.metrics.miss_rate(), graph.metrics.miss_rate() + 0.02);
}

}  // namespace
}  // namespace pfp::core::policy
