#include "core/policy/tree_lvc.hpp"

#include "core/costben/candidate.hpp"
#include "core/policy/eviction.hpp"

namespace pfp::core::policy {

TreeLvc::TreeLvc(tree::TreeConfig tree, costben::PredictLimits limits,
                 ControllerConfig controller)
    : TreeCostBenefit(tree, limits, controller) {}

void TreeLvc::on_access(BlockId block, AccessOutcome outcome, Context& ctx) {
  observe_access(block, outcome, ctx);
  std::uint32_t issued = run_cost_benefit(ctx);

  // "...prefetches the last visited child of a node in addition to
  // prefetching blocks determined by cost-benefit analysis" (Sec 9.6).
  const tree::NodeId current = tree_.current();
  const tree::NodeId lvc = tree_.last_visited_child(current);
  if (lvc != tree::kNoNode) {
    const BlockId target = tree_.block(lvc);
    if (!ctx.cache.contains(target)) {
      if (ctx.cache.free_buffers() == 0) {
        evict_cheapest(ctx);
      }
      admit_predicted_prefetch(
          ctx,
          costben::PredictedBlock{target, tree_.edge_probability(current, lvc),
                                  /*parent_probability=*/1.0, /*depth=*/1},
          controller_.refetch);
      ++issued;
    }
  }
  ctx.estimators.end_period(issued);
}

}  // namespace pfp::core::policy
