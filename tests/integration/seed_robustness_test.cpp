// The paper's headline qualitative results must not depend on the
// particular random seed used to synthesize the workloads.
#include <gtest/gtest.h>

#include "sim/simulator.hpp"
#include "trace/workloads.hpp"

namespace pfp::sim {
namespace {

using core::policy::PolicyKind;

class SeedRobustness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedRobustness, CadHeadlineHoldsAcrossSeeds) {
  const auto seed = GetParam();
  const auto cad = trace::make_workload(trace::Workload::kCad, 40'000, seed);
  engine::EngineConfig c;
  c.cache_blocks = 512;
  c.policy.kind = PolicyKind::kNoPrefetch;
  const auto np = simulate(c, cad);
  c.policy.kind = PolicyKind::kNextLimit;
  const auto nl = simulate(c, cad);
  c.policy.kind = PolicyKind::kTree;
  const auto tree = simulate(c, cad);
  // One-block lookahead never helps CAD...
  EXPECT_GE(nl.metrics.miss_rate(), np.metrics.miss_rate() - 0.02)
      << "seed " << seed;
  // ...while the tree always does, substantially.
  EXPECT_LT(tree.metrics.miss_rate(), np.metrics.miss_rate() * 0.92)
      << "seed " << seed;
}

TEST_P(SeedRobustness, SitarHeadlineHoldsAcrossSeeds) {
  const auto seed = GetParam();
  const auto sitar =
      trace::make_workload(trace::Workload::kSitar, 40'000, seed);
  engine::EngineConfig c;
  c.cache_blocks = 512;
  c.policy.kind = PolicyKind::kNoPrefetch;
  const auto np = simulate(c, sitar);
  c.policy.kind = PolicyKind::kNextLimit;
  const auto nl = simulate(c, sitar);
  // One-block lookahead removes the bulk of sitar's misses on any seed.
  EXPECT_LT(nl.metrics.miss_rate(), np.metrics.miss_rate() * 0.4)
      << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedRobustness,
                         ::testing::Values(1u, 7u, 12345u));

}  // namespace
}  // namespace pfp::sim
