// The cost-model ablation knobs: re-prefetch-distance rule (Eq. 11's x)
// and reclaim rule.  These exist for bench/abl03 and abl04; the tests pin
// their mechanics.
#include <gtest/gtest.h>

#include "core/policy/factory.hpp"
#include "sim/simulator.hpp"
#include "util/prng.hpp"

namespace pfp::core::policy {
namespace {

trace::Trace mixed_trace(std::size_t n) {
  trace::Trace t("mixed");
  util::Xoshiro256 rng(11);
  std::vector<trace::BlockId> pattern;
  for (int i = 0; i < 30; ++i) {
    pattern.push_back(1'000 + rng.below(5'000));
  }
  std::size_t pos = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) {
      t.append(rng.below(100'000));
    } else {
      t.append(pattern[pos]);
      pos = (pos + 1) % pattern.size();
    }
  }
  return t;
}

sim::Result run_with(RefetchDistanceRule refetch, ReclaimRule reclaim,
                     const trace::Trace& t, double t_cpu = 50.0) {
  engine::EngineConfig c;
  c.cache_blocks = 64;
  c.timing.t_cpu = t_cpu;
  c.policy.kind = PolicyKind::kTree;
  c.policy.tree.refetch = refetch;
  c.policy.tree.reclaim = reclaim;
  return sim::simulate(c, t);
}

TEST(TreeKnobs, AllRuleCombinationsRunClean) {
  const auto t = mixed_trace(10'000);
  for (const auto refetch :
       {RefetchDistanceRule::kHorizon, RefetchDistanceRule::kParentDepth,
        RefetchDistanceRule::kImmediate}) {
    for (const auto reclaim :
         {ReclaimRule::kCostBased, ReclaimRule::kPrefetchFirst,
          ReclaimRule::kDemandFirst}) {
      const auto r = run_with(refetch, reclaim, t);
      EXPECT_EQ(r.metrics.accesses, 10'000u);
      EXPECT_LE(r.metrics.miss_rate(), 1.0);
    }
  }
}

TEST(TreeKnobs, RulesAreDeterministic) {
  const auto t = mixed_trace(10'000);
  const auto a = run_with(RefetchDistanceRule::kImmediate,
                          ReclaimRule::kPrefetchFirst, t);
  const auto b = run_with(RefetchDistanceRule::kImmediate,
                          ReclaimRule::kPrefetchFirst, t);
  EXPECT_EQ(a.metrics.misses, b.metrics.misses);
}

TEST(TreeKnobs, RefetchRuleChangesEjectionPrices) {
  // kImmediate prices ejections at the full demand-refetch penalty
  // (x = 0 -> stall = T_disk), making prefetched blocks look expensive to
  // eject; kParentDepth prices deep candidates with zero stall.  The
  // rules only differ for candidates deeper than one access, which the
  // cost-benefit loop admits only when stalls exist — i.e. at a small
  // compute/IO ratio (at the paper's T_cpu = 50 ms every positive-benefit
  // candidate sits at depth 1 and all three rules coincide).
  const auto t = mixed_trace(20'000);
  const auto immediate = run_with(RefetchDistanceRule::kImmediate,
                                  ReclaimRule::kCostBased, t, /*t_cpu=*/1.0);
  const auto parent = run_with(RefetchDistanceRule::kParentDepth,
                               ReclaimRule::kCostBased, t, /*t_cpu=*/1.0);
  EXPECT_TRUE(immediate.metrics.misses != parent.metrics.misses ||
              immediate.metrics.policy.prefetch_ejections !=
                  parent.metrics.policy.prefetch_ejections);
}

TEST(TreeKnobs, CostBasedReclaimNotWorseThanNaiveRules) {
  // The paper's premise: pricing victims via Eqs. 11/13 performs at least
  // as well as blind recency rules (allow small noise either way).
  const auto t = mixed_trace(30'000);
  const auto cost =
      run_with(RefetchDistanceRule::kHorizon, ReclaimRule::kCostBased, t);
  const auto naive = run_with(RefetchDistanceRule::kHorizon,
                              ReclaimRule::kPrefetchFirst, t);
  EXPECT_LE(cost.metrics.miss_rate(), naive.metrics.miss_rate() + 0.05);
}

}  // namespace
}  // namespace pfp::core::policy
