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
  const costben::BenefitTable benefit_of(ctx.timing, ctx.estimators.s(),
                                         limits_.max_depth, dtpf_);
  // Past the payable depth Eq. 1 prices every descendant <= 0: walk no
  // deeper than what the controller could issue.
  costben::PredictLimits walk = limits_;
  walk.max_depth = benefit_of.payable_depth();
  const auto candidates = enumerator_.enumerate(tree_, tree_.current(), walk);
  util::phase_mark(ctx.phases, util::EnginePhase::kEnumeration);
  CostBenefitKnobs knobs;
  knobs.probability_floor = probability_floor();
  return run_cost_benefit_loop(candidates, controller_, knobs, benefit_of,
                               ctx, order_);
}

}  // namespace pfp::core::policy
