// Parameterized property sweeps: invariants that must hold for every
// (policy, cache size) combination on every workload.
#include <gtest/gtest.h>

#include <tuple>

#include "sim/experiment.hpp"
#include "trace/workloads.hpp"

namespace pfp::sim {
namespace {

using core::policy::PolicyKind;
using trace::Trace;
using trace::Workload;

const Trace& shared_workload(Workload w) {
  static Trace cello = trace::make_workload(Workload::kCello, 25'000);
  static Trace snake = trace::make_workload(Workload::kSnake, 25'000);
  static Trace cad = trace::make_workload(Workload::kCad, 25'000);
  static Trace sitar = trace::make_workload(Workload::kSitar, 25'000);
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

using Param = std::tuple<Workload, PolicyKind, std::size_t>;

std::string sanitize(std::string name) {
  for (char& c : name) {
    if (c == '-') {
      c = '_';
    }
  }
  return name;
}

std::string grid_param_name(const ::testing::TestParamInfo<Param>& p) {
  return sanitize(trace::workload_name(std::get<0>(p.param)) + "_" +
                  core::policy::kind_name(std::get<1>(p.param)) + "_" +
                  std::to_string(std::get<2>(p.param)));
}

std::string policy_param_name(
    const ::testing::TestParamInfo<PolicyKind>& p) {
  return sanitize(core::policy::kind_name(p.param));
}

class SimProperties : public ::testing::TestWithParam<Param> {};

TEST_P(SimProperties, CountersAreCoherent) {
  const auto [workload, kind, blocks] = GetParam();
  engine::EngineConfig c;
  c.cache_blocks = blocks;
  c.policy.kind = kind;
  const auto r = simulate(c, shared_workload(workload));
  const auto& m = r.metrics;

  // Every access is exactly one of hit/prefetch-hit/miss.
  EXPECT_EQ(m.accesses, m.demand_hits + m.prefetch_hits + m.misses);
  // Rates are well-formed.
  EXPECT_GE(m.miss_rate(), 0.0);
  EXPECT_LE(m.miss_rate(), 1.0);
  EXPECT_LE(m.prefetch_cache_hit_rate(), 1.0);
  // A prefetch hit requires a prior prefetch.
  EXPECT_LE(m.prefetch_hits, m.policy.prefetches_issued);
  // Prefetches either hit, are ejected, or are still resident.
  EXPECT_LE(m.prefetch_hits + m.policy.prefetch_ejections,
            m.policy.prefetches_issued + blocks);
  // Instrumentation subsets.
  EXPECT_LE(m.policy.predictable_uncached, m.policy.predictable);
  EXPECT_LE(m.policy.lvc_followed, m.policy.lvc_opportunities);
  EXPECT_LE(m.policy.lvc_cached, m.policy.lvc_checks);
  EXPECT_LE(m.policy.candidates_already_cached, m.policy.candidates_chosen);
  // Timing is charged for every access.
  EXPECT_GT(m.elapsed_ms, 0.0);
  EXPECT_LE(m.stall_ms, m.elapsed_ms);
}

TEST_P(SimProperties, PrefetchingNeverWorseThanNoPrefetchByMuch) {
  const auto [workload, kind, blocks] = GetParam();
  engine::EngineConfig c;
  c.cache_blocks = blocks;
  c.policy.kind = kind;
  const auto r = simulate(c, shared_workload(workload));
  engine::EngineConfig np = c;
  np.policy.kind = PolicyKind::kNoPrefetch;
  const auto base = simulate(np, shared_workload(workload));
  // Cost-benefit should keep harmful prefetching in check; allow a small
  // tolerance for cache-pollution noise in the baselines.
  EXPECT_LE(r.metrics.miss_rate(), base.metrics.miss_rate() + 0.08)
      << r.policy_name << " on " << r.trace_name << " @" << blocks;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SimProperties,
    ::testing::Combine(
        ::testing::Values(Workload::kCello, Workload::kSnake, Workload::kCad,
                          Workload::kSitar),
        ::testing::Values(PolicyKind::kNoPrefetch, PolicyKind::kNextLimit,
                          PolicyKind::kTree, PolicyKind::kTreeNextLimit,
                          PolicyKind::kTreeLvc, PolicyKind::kPerfectSelector,
                          PolicyKind::kTreeThreshold,
                          PolicyKind::kTreeChildren),
        ::testing::Values(std::size_t{128}, std::size_t{1024})),
    grid_param_name);

// Determinism across the whole grid: same spec, same metrics.
class SimDeterminism : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(SimDeterminism, RepeatRunsAreIdentical) {
  engine::EngineConfig c;
  c.cache_blocks = 256;
  c.policy.kind = GetParam();
  const auto& t = shared_workload(Workload::kCad);
  const auto a = simulate(c, t);
  const auto b = simulate(c, t);
  EXPECT_EQ(a.metrics.misses, b.metrics.misses);
  EXPECT_EQ(a.metrics.policy.prefetches_issued,
            b.metrics.policy.prefetches_issued);
  EXPECT_EQ(a.metrics.policy.predictable, b.metrics.policy.predictable);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, SimDeterminism,
    ::testing::Values(PolicyKind::kNoPrefetch, PolicyKind::kNextLimit,
                      PolicyKind::kTree, PolicyKind::kTreeNextLimit,
                      PolicyKind::kTreeLvc, PolicyKind::kPerfectSelector,
                      PolicyKind::kTreeThreshold, PolicyKind::kTreeChildren),
    policy_param_name);

}  // namespace
}  // namespace pfp::sim
