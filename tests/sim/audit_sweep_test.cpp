// End-to-end SIM_AUDIT coverage: drive real simulations and sweep the
// buffer-cache invariants and, for the tree policy, the live LZ tree and
// its node pool periodically.  The unit detection tests prove
// each audit *can* fire; this proves the real simulator keeps every
// invariant across all four paper workloads and the main policy shapes.
// Skips when built without SIM_AUDIT (the sanitizer CI legs enable it).
#include <gtest/gtest.h>

#include <cstddef>
#include <span>
#include <vector>

#include "core/policy/factory.hpp"
#include "core/policy/tree_policy.hpp"
#include "sim/simulator.hpp"
#include "trace/workloads.hpp"
#include "util/audit.hpp"

namespace pfp::sim {
namespace {

class SimulatorAuditSweep
    : public ::testing::TestWithParam<trace::Workload> {
 protected:
  void SetUp() override {
    if (!PFP_AUDIT_ENABLED) {
      GTEST_SKIP() << "built without SIM_AUDIT; sweeps are no-ops";
    }
  }
};

TEST_P(SimulatorAuditSweep, InvariantsHoldThroughoutRun) {
  using core::policy::PolicyKind;
  const trace::Trace t = trace::make_workload(GetParam(), 2'000, /*seed=*/7);
  for (const PolicyKind kind :
       {PolicyKind::kTree, PolicyKind::kNextLimit, PolicyKind::kProbGraph,
        PolicyKind::kPerfectSelector}) {
    engine::EngineConfig config;
    config.cache_blocks = 64;
    config.policy.kind = kind;
    Simulator simulator(config);
    // One access per call, with the rest of the trace as look-ahead so
    // the oracle's prefetch and eviction paths are swept too.
    const std::vector<trace::BlockId> stream = t.blocks();
    for (std::size_t i = 0; i < t.size(); ++i) {
      simulator.engine().access_many(std::span(stream).subspan(i, 1),
                                     std::span(stream).subspan(i + 1));
      if (i % 50 == 0) {
        // The default abort handler is active: a violated invariant kills
        // the test with the audit message rather than failing an EXPECT.
        simulator.buffer_cache().audit();
        if (const auto* tp = dynamic_cast<const core::policy::TreeCostBenefit*>(
                &simulator.prefetcher())) {
          tp->prefetch_tree().audit();
        }
      }
    }
    simulator.buffer_cache().audit();
    if (const auto* tp = dynamic_cast<const core::policy::TreeCostBenefit*>(
            &simulator.prefetcher())) {
      tp->prefetch_tree().audit();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, SimulatorAuditSweep,
                         ::testing::ValuesIn(trace::all_workloads()),
                         [](const auto& param_info) {
                           return trace::workload_name(param_info.param);
                         });

}  // namespace
}  // namespace pfp::sim
