// Step-level structural invariants of the simulator, checked after every
// single access across policies: pool accounting, cache disjointness, OBL
// quota, and monotone counters.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "sim/simulator.hpp"
#include "trace/workloads.hpp"

namespace pfp::sim {
namespace {

using core::policy::PolicyKind;

class StepInvariants : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(StepInvariants, HoldAfterEveryAccess) {
  const auto t = trace::make_workload(trace::Workload::kSnake, 15'000);
  engine::EngineConfig c;
  c.cache_blocks = 64;
  c.policy.kind = GetParam();
  Simulator sim(c);

  std::uint64_t last_accesses = 0;
  // One access per call, with the rest of the trace as look-ahead so
  // the oracle still prefetches.
  const std::vector<trace::BlockId> stream = t.blocks();
  for (std::size_t i = 0; i < t.size(); ++i) {
    sim.engine().access_many(std::span(stream).subspan(i, 1),
                             std::span(stream).subspan(i + 1));
    const auto& cache = sim.buffer_cache();
    const auto& m = sim.metrics();

    // Pool accounting.
    ASSERT_LE(cache.resident(), cache.total_blocks());
    ASSERT_EQ(cache.resident(),
              cache.demand().size() + cache.prefetch().size());

    // The referenced block ends up in the demand cache — unless the pool
    // is fully contended, where a policy may legally reclaim even the
    // just-referenced buffer for a prefetch it prices higher (the data
    // was already delivered to the application).
    if (cache.resident() < cache.total_blocks()) {
      ASSERT_TRUE(cache.demand().contains(t[i].block)) << "i=" << i;
    }

    // Demand and prefetch caches are disjoint: a block resident in both
    // would double-count a buffer.
    for (const auto& entry : cache.prefetch().entries()) {
      ASSERT_FALSE(cache.demand().contains(entry.block)) << "i=" << i;
    }

    // OBL quota: next-limit style blocks never exceed 10% (+1 rounding).
    ASSERT_LE(cache.prefetch().obl_count(),
              cache.total_blocks() / 10 + 1);

    // Counters advance exactly one access at a time and stay coherent.
    ASSERT_EQ(m.accesses, last_accesses + 1);
    last_accesses = m.accesses;
    ASSERT_EQ(m.accesses, m.demand_hits + m.prefetch_hits + m.misses);
    ASSERT_LE(m.stall_ms, m.elapsed_ms);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, StepInvariants,
    ::testing::Values(PolicyKind::kNoPrefetch, PolicyKind::kNextLimit,
                      PolicyKind::kTree, PolicyKind::kTreeNextLimit,
                      PolicyKind::kTreeLvc, PolicyKind::kPerfectSelector,
                      PolicyKind::kTreeThreshold, PolicyKind::kTreeChildren,
                      PolicyKind::kProbGraph, PolicyKind::kTreeAdaptive),
    [](const ::testing::TestParamInfo<PolicyKind>& param_info) {
      std::string name = core::policy::kind_name(param_info.param);
      for (char& ch : name) {
        if (ch == '-') {
          ch = '_';
        }
      }
      return name;
    });

}  // namespace
}  // namespace pfp::sim
