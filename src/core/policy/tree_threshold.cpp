#include "core/policy/tree_threshold.hpp"

#include "core/policy/eviction.hpp"
#include "util/assert.hpp"
#include "util/string_utils.hpp"

namespace pfp::core::policy {

TreeThreshold::TreeThreshold(double threshold, tree::TreeConfig config)
    : TreeInstrumentedPrefetcher(config), threshold_(threshold) {
  PFP_REQUIRE(threshold > 0.0 && threshold <= 1.0);
}

std::string TreeThreshold::name() const {
  return "tree-threshold(" + util::format_double(threshold_, 3) + ")";
}

void TreeThreshold::on_access(BlockId block, AccessOutcome outcome,
                              Context& ctx) {
  observe_access(block, outcome, ctx);
  std::uint32_t issued = 0;
  const tree::NodeId current = tree_.current();
  for (const tree::NodeId child : tree_.children(current)) {
    const double p = tree_.edge_probability(current, child);
    if (p < threshold_) {
      break;  // children sorted by descending weight: the rest also fail
    }
    const BlockId target = tree_.block(child);
    ++ctx.metrics.candidates_chosen;
    if (ctx.cache.contains(target)) {
      ++ctx.metrics.candidates_already_cached;
      continue;
    }
    if (ctx.cache.free_buffers() == 0) {
      evict_prefetch_first(ctx);
    }
    issue_prefetch(ctx, target, p, /*depth=*/1, /*x=*/0, /*obl=*/false);
    ++issued;
  }
  ctx.estimators.end_period(issued);
}

void TreeThreshold::reclaim_for_demand(Context& ctx) {
  // Speculative blocks yield to demand fetches; this self-limits the
  // prefetch cache in the absence of a cost model.
  evict_prefetch_first(ctx);
}

}  // namespace pfp::core::policy
