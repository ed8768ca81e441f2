#include "core/policy/tree_next_limit.hpp"

namespace pfp::core::policy {

TreeNextLimit::TreeNextLimit(tree::TreeConfig tree,
                             costben::PredictLimits limits,
                             ControllerConfig controller,
                             double quota_fraction)
    : TreeCostBenefit(tree, limits, controller), lookahead_(quota_fraction) {}

void TreeNextLimit::on_access(BlockId block, AccessOutcome outcome,
                              Context& ctx) {
  observe_access(block, outcome, ctx);
  std::uint32_t issued = 0;
  if (outcome == AccessOutcome::kMiss ||
      outcome == AccessOutcome::kPrefetchHit) {
    if (lookahead_.maybe_prefetch_next(block, ctx)) {
      ++issued;
    }
  }
  issued += run_cost_benefit(ctx);
  ctx.estimators.end_period(issued);
}

}  // namespace pfp::core::policy
