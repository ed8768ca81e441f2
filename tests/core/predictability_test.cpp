#include "core/tree/predictability.hpp"

#include <gtest/gtest.h>

#include "sim/simulator.hpp"
#include "trace/workloads.hpp"

namespace pfp::core::tree {
namespace {

trace::Trace of_blocks(std::initializer_list<trace::BlockId> blocks) {
  trace::Trace t("t");
  for (const auto b : blocks) {
    t.append(b);
  }
  return t;
}

TEST(Predictability, EmptyTrace) {
  const auto r = measure_predictability(trace::Trace("empty"));
  EXPECT_EQ(r.accesses, 0u);
  EXPECT_DOUBLE_EQ(r.prediction_accuracy(), 0.0);
  EXPECT_DOUBLE_EQ(r.lvc_revisit_rate(), 0.0);
}

TEST(Predictability, AllNovelBlocksAreUnpredictable) {
  const auto r = measure_predictability(of_blocks({1, 2, 3, 4, 5}));
  EXPECT_EQ(r.accesses, 5u);
  EXPECT_EQ(r.predictable, 0u);
  EXPECT_EQ(r.tree_nodes, 6u);  // root + 5
}

TEST(Predictability, RepetitionBecomesPredictable) {
  // (1)(1,2)(1,...): the second and third "1" match a root child.
  const auto r = measure_predictability(of_blocks({1, 1, 2, 1}));
  EXPECT_EQ(r.predictable, 2u);
  EXPECT_DOUBLE_EQ(r.prediction_accuracy(), 0.5);
}

TEST(Predictability, MatchesSimulatorsTreeMetric) {
  // The standalone pass must agree exactly with the metric the simulator
  // collects through the tree policy (same parse, same counters).
  const auto t = trace::make_workload(trace::Workload::kCad, 20'000);
  const auto standalone = measure_predictability(t);

  engine::EngineConfig c;
  c.cache_blocks = 1024;
  c.policy.kind = core::policy::PolicyKind::kTree;
  const auto simulated = sim::simulate(c, t);

  EXPECT_EQ(standalone.predictable, simulated.metrics.policy.predictable);
  EXPECT_EQ(standalone.lvc_followed,
            simulated.metrics.policy.lvc_followed);
  EXPECT_EQ(standalone.lvc_opportunities,
            simulated.metrics.policy.lvc_opportunities);
  EXPECT_EQ(standalone.tree_nodes, simulated.metrics.policy.tree_nodes);
}

TEST(Predictability, BoundedTreeLimitsNodes) {
  TreeConfig config;
  config.max_nodes = 64;
  const auto t = trace::make_workload(trace::Workload::kSnake, 20'000);
  const auto r = measure_predictability(t, config);
  EXPECT_LE(r.tree_nodes, 65u);
  // Bounded trees forget, so they predict no better than unbounded ones.
  const auto unbounded = measure_predictability(t);
  EXPECT_LE(r.prediction_accuracy(),
            unbounded.prediction_accuracy() + 1e-9);
}

}  // namespace
}  // namespace pfp::core::tree
