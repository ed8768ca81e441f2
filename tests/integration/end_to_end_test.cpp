// End-to-end runs on the paper workloads: the qualitative results the
// paper reports must hold on the synthetic reproductions.
#include <gtest/gtest.h>

#include "sim/experiment.hpp"
#include "trace/workloads.hpp"

namespace pfp::sim {
namespace {

using core::policy::PolicyKind;
using trace::Trace;
using trace::Workload;

constexpr std::uint64_t kRefs = 60'000;  // enough to warm the tree

Result run(const Trace& t, PolicyKind kind, std::size_t blocks) {
  engine::EngineConfig c;
  c.cache_blocks = blocks;
  c.policy.kind = kind;
  return simulate(c, t);
}

class WorkloadFixture : public ::testing::Test {
 protected:
  static const Trace& workload(Workload w) {
    static Trace cello = trace::make_workload(Workload::kCello, kRefs);
    static Trace snake = trace::make_workload(Workload::kSnake, kRefs);
    static Trace cad = trace::make_workload(Workload::kCad, kRefs);
    static Trace sitar = trace::make_workload(Workload::kSitar, kRefs);
    switch (w) {
      case Workload::kCello:
        return cello;
      case Workload::kSnake:
        return snake;
      case Workload::kCad:
        return cad;
      default:
        return sitar;
    }
  }
};

// Section 9.1: prefetching helps everywhere; tree-next-limit is the best
// or tied-best scheme across traces and sizes.
TEST_F(WorkloadFixture, TreeNextLimitNeverLosesBadly) {
  for (const Workload w : trace::all_workloads()) {
    const auto& t = workload(w);
    for (const std::size_t blocks : {512u, 2048u}) {
      const auto np = run(t, PolicyKind::kNoPrefetch, blocks);
      const auto tnl = run(t, PolicyKind::kTreeNextLimit, blocks);
      EXPECT_LE(tnl.metrics.miss_rate(), np.metrics.miss_rate() + 0.02)
          << trace::workload_name(w) << " @" << blocks;
    }
  }
}

// The CAD headline: one-block lookahead gains nothing, the tree gains a
// lot (Section 9.1, "reducing cache miss rates by up to 36%").
TEST_F(WorkloadFixture, CadTreeBeatsNextLimit) {
  const auto& cad = workload(Workload::kCad);
  const auto np = run(cad, PolicyKind::kNoPrefetch, 1024);
  const auto nl = run(cad, PolicyKind::kNextLimit, 1024);
  const auto tree = run(cad, PolicyKind::kTree, 1024);
  // next-limit ~ no-prefetch
  EXPECT_NEAR(nl.metrics.miss_rate(), np.metrics.miss_rate(), 0.05);
  // tree clearly better
  EXPECT_LT(tree.metrics.miss_rate(), np.metrics.miss_rate() * 0.9);
}

// The sitar headline: next-limit removes most misses; plain tree does not
// (Section 9.1, "the basic tree algorithm performs poorly [on sitar]").
TEST_F(WorkloadFixture, SitarNextLimitDominates) {
  const auto& sitar = workload(Workload::kSitar);
  const auto np = run(sitar, PolicyKind::kNoPrefetch, 1024);
  const auto nl = run(sitar, PolicyKind::kNextLimit, 1024);
  const auto tree = run(sitar, PolicyKind::kTree, 1024);
  EXPECT_LT(nl.metrics.miss_rate(), np.metrics.miss_rate() * 0.4)
      << "OBL must remove most sequential misses";
  EXPECT_GT(tree.metrics.miss_rate(), np.metrics.miss_rate() * 0.75)
      << "plain tree close to no-prefetch on sequential workloads";
}

// cello/snake: both components help; the combination is at least as good
// as either alone (the paper finds the reductions additive).
TEST_F(WorkloadFixture, CombinationAtLeastAsGoodAsParts) {
  for (const Workload w : {Workload::kCello, Workload::kSnake}) {
    const auto& t = workload(w);
    const auto nl = run(t, PolicyKind::kNextLimit, 1024);
    const auto tree = run(t, PolicyKind::kTree, 1024);
    const auto tnl = run(t, PolicyKind::kTreeNextLimit, 1024);
    const double best_single =
        std::min(nl.metrics.miss_rate(), tree.metrics.miss_rate());
    // Tolerance covers mild cache pollution on cello, whose residual
    // stream predicts poorly (Table 2: 35.8%) so some tree prefetches
    // displace OBL-useful buffers.
    EXPECT_LE(tnl.metrics.miss_rate(), best_single + 0.06)
        << trace::workload_name(w);
  }
}

// Section 9.5: perfect-selector reduces miss rates considerably vs tree.
TEST_F(WorkloadFixture, PerfectSelectorBeatsTree) {
  for (const Workload w : {Workload::kCad, Workload::kSnake}) {
    const auto& t = workload(w);
    const auto tree = run(t, PolicyKind::kTree, 1024);
    const auto perfect = run(t, PolicyKind::kPerfectSelector, 1024);
    EXPECT_LT(perfect.metrics.miss_rate(), tree.metrics.miss_rate())
        << trace::workload_name(w);
  }
}

// Section 9.2.1: the tree's advantage shrinks as the cache grows.
TEST_F(WorkloadFixture, TreeAdvantageDeclinesWithCacheSize) {
  const auto& cad = workload(Workload::kCad);
  const auto np_small = run(cad, PolicyKind::kNoPrefetch, 256);
  const auto tree_small = run(cad, PolicyKind::kTree, 256);
  const auto np_big = run(cad, PolicyKind::kNoPrefetch, 8192);
  const auto tree_big = run(cad, PolicyKind::kTree, 8192);
  const double gain_small =
      np_small.metrics.miss_rate() - tree_small.metrics.miss_rate();
  const double gain_big =
      np_big.metrics.miss_rate() - tree_big.metrics.miss_rate();
  EXPECT_GT(gain_small, gain_big);
}

// Figure 7's mechanism: at large caches most chosen candidates are
// already resident.
TEST_F(WorkloadFixture, CandidatesMostlyCachedAtLargeSizes) {
  const auto& cad = workload(Workload::kCad);
  const auto r = run(cad, PolicyKind::kTree, 8192);
  EXPECT_GT(r.metrics.candidates_cached_fraction(), 0.7);
}

// Section 9.7 / Figure 17: cost-benefit tree is competitive with the best
// hand-tuned parametric schemes.
TEST_F(WorkloadFixture, TreeCompetitiveWithTunedParametrics) {
  const auto& snake = workload(Workload::kSnake);
  const auto tree = run(snake, PolicyKind::kTree, 1024);
  double best_parametric = 1.0;
  for (const double threshold : {0.002, 0.025, 0.05, 0.1, 0.2}) {
    engine::EngineConfig c;
    c.cache_blocks = 1024;
    c.policy.kind = PolicyKind::kTreeThreshold;
    c.policy.threshold = threshold;
    best_parametric =
        std::min(best_parametric, simulate(c, snake).metrics.miss_rate());
  }
  EXPECT_LE(tree.metrics.miss_rate(), best_parametric + 0.05);
}

// Table 2's ordering: cello predicts worst, the others land around
// 50-80%.
TEST_F(WorkloadFixture, PredictionAccuracyOrdering) {
  const auto cello = run(workload(Workload::kCello), PolicyKind::kTree, 1024);
  const auto snake = run(workload(Workload::kSnake), PolicyKind::kTree, 1024);
  const auto cad = run(workload(Workload::kCad), PolicyKind::kTree, 1024);
  const auto sitar = run(workload(Workload::kSitar), PolicyKind::kTree, 1024);
  EXPECT_LT(cello.metrics.prediction_accuracy(),
            snake.metrics.prediction_accuracy());
  EXPECT_LT(snake.metrics.prediction_accuracy(),
            cad.metrics.prediction_accuracy() + 0.1);
  EXPECT_GT(sitar.metrics.prediction_accuracy(), 0.5);
  EXPECT_GT(cad.metrics.prediction_accuracy(), 0.5);
}

}  // namespace
}  // namespace pfp::sim
