#include "core/policy/tree_children.hpp"

#include <algorithm>
#include <vector>

#include "core/policy/eviction.hpp"
#include "util/assert.hpp"

namespace pfp::core::policy {

TreeChildren::TreeChildren(std::uint32_t count, tree::TreeConfig config)
    : TreeInstrumentedPrefetcher(config), count_(count) {
  PFP_REQUIRE(count >= 1);
}

std::string TreeChildren::name() const {
  return "tree-children(" + std::to_string(count_) + ")";
}

void TreeChildren::on_access(BlockId block, AccessOutcome outcome,
                             Context& ctx) {
  observe_access(block, outcome, ctx);
  const tree::NodeId current = tree_.current();
  const auto children = tree_.children(current);

  // Top-k children by weight (== by probability; same denominator).  The
  // child list is maintained in descending weight order, so these are
  // simply the first k entries.
  const std::size_t keep = std::min<std::size_t>(count_, children.size());
  const auto ranked = children.first(keep);

  std::uint32_t issued = 0;
  for (const tree::NodeId child : ranked) {
    const BlockId target = tree_.block(child);
    ++ctx.metrics.candidates_chosen;
    if (ctx.cache.contains(target)) {
      ++ctx.metrics.candidates_already_cached;
      continue;
    }
    if (ctx.cache.free_buffers() == 0) {
      evict_prefetch_first(ctx);
    }
    issue_prefetch(ctx, target, tree_.edge_probability(current, child),
                   /*depth=*/1, /*x=*/0, /*obl=*/false);
    ++issued;
  }
  ctx.estimators.end_period(issued);
}

void TreeChildren::reclaim_for_demand(Context& ctx) {
  evict_prefetch_first(ctx);
}

}  // namespace pfp::core::policy
