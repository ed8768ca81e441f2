// Behavioral tests for the policies, driven through the simulator on
// small crafted traces.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/policy/factory.hpp"
#include "sim/simulator.hpp"
#include "trace/trace.hpp"
#include "util/prng.hpp"

namespace pfp::core::policy {
namespace {

using engine::EngineConfig;
using sim::simulate;
using trace::BlockId;
using trace::Trace;

Trace sequential_trace(std::size_t n) {
  Trace t("seq");
  // Disjoint sequential runs of 50 blocks (fresh addresses each run).
  for (std::size_t i = 0; i < n; ++i) {
    const BlockId base = static_cast<BlockId>(i / 50) * 1'000;
    t.append(base + i % 50);
  }
  return t;
}

Trace repeated_scattered_trace(int rounds) {
  // A fixed non-sequential pattern repeated over and over: the LZ tree
  // must learn it; one-block lookahead must not.
  Trace t("pattern");
  util::SplitMix64 sm(1234);
  std::vector<BlockId> pattern;
  for (int i = 0; i < 40; ++i) {
    pattern.push_back(sm.next() >> 20);
  }
  for (int r = 0; r < rounds; ++r) {
    for (const BlockId b : pattern) {
      t.append(b);
    }
  }
  return t;
}

EngineConfig config_for(PolicyKind kind, std::size_t blocks = 64) {
  EngineConfig c;
  c.cache_blocks = blocks;
  c.policy.kind = kind;
  return c;
}

TEST(Policies, FactoryMakesEveryKind) {
  // all_policy_kinds() is the registry: a new kind failing to construct
  // (or missing from the registry) must fail here, not in a sweep.
  for (const PolicyKind kind : all_policy_kinds()) {
    PolicySpec spec;
    spec.kind = kind;
    const auto p = make_prefetcher(spec);
    ASSERT_NE(p, nullptr) << kind_name(kind);
    EXPECT_FALSE(p->name().empty()) << kind_name(kind);
  }
}

TEST(Policies, KindNamesRoundTrip) {
  std::set<std::string> names;
  for (const PolicyKind kind : all_policy_kinds()) {
    const std::string name = kind_name(kind);
    EXPECT_EQ(kind_from_name(name), kind);
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
  }
}

TEST(Policies, MalformedKindNamesNameTheOffender) {
  for (const char* bad : {"nope", "", "Tree", "tree ", "markov2"}) {
    try {
      kind_from_name(bad);
      FAIL() << "accepted '" << bad << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                std::string("unknown policy '") + bad + "'");
    }
  }
}

TEST(Policies, HeadlineListMatchesPaperOrder) {
  const auto& list = headline_policies();
  ASSERT_EQ(list.size(), 4u);
  EXPECT_EQ(list[0], PolicyKind::kNoPrefetch);
  EXPECT_EQ(list[3], PolicyKind::kTreeNextLimit);
}

TEST(Policies, ParametricNamesIncludeParameter) {
  PolicySpec spec;
  spec.kind = PolicyKind::kTreeThreshold;
  spec.threshold = 0.125;
  EXPECT_EQ(make_prefetcher(spec)->name(), "tree-threshold(0.125)");
  spec.kind = PolicyKind::kTreeChildren;
  spec.children = 7;
  EXPECT_EQ(make_prefetcher(spec)->name(), "tree-children(7)");
}

TEST(Policies, NoPrefetchNeverPrefetches) {
  const auto r =
      simulate(config_for(PolicyKind::kNoPrefetch), sequential_trace(5'000));
  EXPECT_EQ(r.metrics.policy.prefetches_issued, 0u);
  EXPECT_EQ(r.metrics.prefetch_hits, 0u);
}

TEST(Policies, NextLimitStreamsSequentialRuns) {
  const Trace t = sequential_trace(5'000);
  const auto np = simulate(config_for(PolicyKind::kNoPrefetch), t);
  const auto nl = simulate(config_for(PolicyKind::kNextLimit), t);
  // Fresh 50-block runs: no-prefetch misses everything; OBL misses only
  // the first block of each run.
  EXPECT_GT(np.metrics.miss_rate(), 0.9);
  EXPECT_LT(nl.metrics.miss_rate(), 0.1);
  EXPECT_GT(nl.metrics.prefetch_hits, 0u);
}

TEST(Policies, NextLimitRespectsQuota) {
  const auto r =
      simulate(config_for(PolicyKind::kNextLimit), sequential_trace(5'000));
  // 10% of 64 blocks = 6; the OBL share may never have exceeded it, and
  // with streaming each prefetch is consumed next access anyway.
  EXPECT_LE(r.metrics.policy.obl_prefetches_issued,
            r.metrics.policy.prefetches_issued);
}

TEST(Policies, NextLimitUselessOnScatteredPattern) {
  const Trace t = repeated_scattered_trace(100);
  const auto np = simulate(config_for(PolicyKind::kNoPrefetch, 16), t);
  const auto nl = simulate(config_for(PolicyKind::kNextLimit, 16), t);
  // Scattered ids: next-block prefetches never hit.
  EXPECT_EQ(nl.metrics.prefetch_hits, 0u);
  EXPECT_NEAR(nl.metrics.miss_rate(), np.metrics.miss_rate(), 0.05);
}

TEST(Policies, TreeLearnsScatteredPattern) {
  const Trace t = repeated_scattered_trace(100);
  // Cache smaller than the 40-block pattern: plain LRU always misses.
  const auto np = simulate(config_for(PolicyKind::kNoPrefetch, 16), t);
  const auto tree = simulate(config_for(PolicyKind::kTree, 16), t);
  EXPECT_GT(np.metrics.miss_rate(), 0.95);
  EXPECT_LT(tree.metrics.miss_rate(), np.metrics.miss_rate() - 0.2)
      << "tree must exploit the learned pattern";
  EXPECT_GT(tree.metrics.prefetch_hits, 0u);
}

TEST(Policies, TreePredictionAccuracyOnPattern) {
  const Trace t = repeated_scattered_trace(100);
  const auto tree = simulate(config_for(PolicyKind::kTree, 16), t);
  // After warm-up, nearly every access matches a tree child.
  EXPECT_GT(tree.metrics.prediction_accuracy(), 0.8);
}

TEST(Policies, TreeNextLimitCombinesBothStrengths) {
  const Trace seq = sequential_trace(5'000);
  const Trace pat = repeated_scattered_trace(100);
  const auto on_seq = simulate(config_for(PolicyKind::kTreeNextLimit), seq);
  const auto on_pat =
      simulate(config_for(PolicyKind::kTreeNextLimit, 16), pat);
  EXPECT_LT(on_seq.metrics.miss_rate(), 0.12);
  EXPECT_LT(on_pat.metrics.miss_rate(), 0.75);
}

TEST(Policies, PerfectSelectorBeatsTreeOnNoisyPattern) {
  // Add noise so plain tree mispredicts sometimes.
  Trace t("noisy");
  util::Xoshiro256 rng(7);
  util::SplitMix64 sm(99);
  std::vector<BlockId> pattern;
  for (int i = 0; i < 30; ++i) {
    pattern.push_back(sm.next() >> 20);
  }
  for (int r = 0; r < 150; ++r) {
    for (const BlockId b : pattern) {
      if (rng.bernoulli(0.1)) {
        t.append(rng.below(1 << 20));  // noise
      }
      t.append(b);
    }
  }
  const auto tree = simulate(config_for(PolicyKind::kTree, 16), t);
  const auto perfect =
      simulate(config_for(PolicyKind::kPerfectSelector, 16), t);
  EXPECT_LE(perfect.metrics.miss_rate(), tree.metrics.miss_rate() + 1e-9);
}

TEST(Policies, PerfectSelectorNearZeroMissOnCleanPattern) {
  const Trace t = repeated_scattered_trace(200);
  const auto r = simulate(config_for(PolicyKind::kPerfectSelector, 16), t);
  // After warm-up almost every access is predictable and prefetched just
  // in time; residual misses come from LZ substring boundaries that land
  // on root contexts without the needed child yet.
  EXPECT_LT(r.metrics.miss_rate(), 0.15);
}

TEST(Policies, TreeThresholdPrefetchesLikelyChildren) {
  PolicySpec spec;
  spec.kind = PolicyKind::kTreeThreshold;
  spec.threshold = 0.2;
  EngineConfig c;
  c.cache_blocks = 16;
  c.policy = spec;
  const auto r = simulate(c, repeated_scattered_trace(100));
  EXPECT_GT(r.metrics.policy.prefetches_issued, 0u);
  EXPECT_GT(r.metrics.prefetch_hits, 0u);
  EXPECT_LT(r.metrics.miss_rate(), 0.8);
}

TEST(Policies, TreeChildrenPrefetchesTopK) {
  PolicySpec spec;
  spec.kind = PolicyKind::kTreeChildren;
  spec.children = 1;
  EngineConfig c;
  c.cache_blocks = 16;
  c.policy = spec;
  const auto r = simulate(c, repeated_scattered_trace(100));
  EXPECT_GT(r.metrics.policy.prefetches_issued, 0u);
  EXPECT_LT(r.metrics.miss_rate(), 0.8);
}

TEST(Policies, TreeLvcMatchesTreeOnCleanPattern) {
  // Section 9.6's finding: tree-lvc ~ tree (lvc blocks mostly cached).
  const Trace t = repeated_scattered_trace(150);
  const auto tree = simulate(config_for(PolicyKind::kTree, 32), t);
  const auto lvc = simulate(config_for(PolicyKind::kTreeLvc, 32), t);
  EXPECT_NEAR(lvc.metrics.miss_rate(), tree.metrics.miss_rate(), 0.1);
}

TEST(Policies, TreeRespectsNodeBudget) {
  PolicySpec spec;
  spec.kind = PolicyKind::kTree;
  spec.tree.max_nodes = 128;
  EngineConfig c;
  c.cache_blocks = 64;
  c.policy = spec;
  const auto r = simulate(c, repeated_scattered_trace(200));
  EXPECT_LE(r.metrics.policy.tree_nodes, 129u);
  EXPECT_LE(r.metrics.policy.tree_bytes, 129u * 40u);
}

TEST(Policies, MetricsCountersAreConsistent) {
  const auto r = simulate(config_for(PolicyKind::kTreeNextLimit, 32),
                          repeated_scattered_trace(100));
  const auto& m = r.metrics;
  EXPECT_EQ(m.accesses, m.demand_hits + m.prefetch_hits + m.misses);
  EXPECT_EQ(m.policy.prefetches_issued,
            m.policy.obl_prefetches_issued + m.policy.tree_prefetches_issued);
  EXPECT_LE(m.prefetch_hits, m.policy.prefetches_issued);
  EXPECT_LE(m.policy.candidates_already_cached, m.policy.candidates_chosen);
  EXPECT_LE(m.policy.predictable, m.accesses);
  EXPECT_LE(m.policy.lvc_followed, m.policy.lvc_opportunities);
  EXPECT_LE(m.policy.lvc_cached, m.policy.lvc_checks);
}

}  // namespace
}  // namespace pfp::core::policy
