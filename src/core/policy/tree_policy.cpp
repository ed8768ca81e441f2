#include "core/policy/tree_policy.hpp"

namespace pfp::core::policy {

TreeCostBenefit::TreeCostBenefit(tree::TreeConfig tree,
                                 costben::PredictLimits limits,
                                 ControllerConfig controller)
    : TreeInstrumentedPrefetcher(tree),
      limits_(limits),
      controller_(controller) {}

void TreeCostBenefit::on_access(BlockId block, AccessOutcome outcome,
                                Context& ctx) {
  observe_access(block, outcome, ctx);
  const std::uint32_t issued = run_cost_benefit(ctx);
  ctx.estimators.end_period(issued);
}

void TreeCostBenefit::reclaim_for_demand(Context& ctx) {
  // Section 6.2: the same cost equations pick the replacement victim for
  // demand fetches (unless an ablation overrides the rule).
  reclaim_by_rule(controller_.reclaim, ctx);
}

std::uint32_t TreeCostBenefit::run_cost_benefit(Context& ctx) {
  const auto candidates =
      enumerator_.enumerate(tree_, tree_.current(), limits_);
  util::phase_mark(ctx.phases, util::EnginePhase::kEnumeration);
  CostBenefitKnobs knobs;
  knobs.max_depth = limits_.max_depth;
  knobs.probability_floor = probability_floor();
  return run_cost_benefit_loop(candidates, controller_, knobs, ctx, order_,
                               dtpf_);
}

}  // namespace pfp::core::policy
