#include "core/policy/perfect_selector.hpp"

#include "core/policy/eviction.hpp"

namespace pfp::core::policy {

PerfectSelector::PerfectSelector() : PerfectSelector(tree::TreeConfig{}) {}

PerfectSelector::PerfectSelector(tree::TreeConfig config)
    : TreeInstrumentedPrefetcher(config) {}

void PerfectSelector::on_access(BlockId block, AccessOutcome outcome,
                                Context& ctx) {
  observe_access(block, outcome, ctx);
  std::uint32_t issued = 0;
  if (ctx.next_block.has_value()) {
    const BlockId next = *ctx.next_block;
    const tree::NodeId current = tree_.current();
    const tree::NodeId child = tree_.find_child(current, next);
    ++ctx.metrics.candidates_chosen;
    if (child != tree::kNoNode) {
      if (ctx.cache.contains(next)) {
        ++ctx.metrics.candidates_already_cached;
      } else {
        if (ctx.cache.free_buffers() == 0) {
          // The prefetched block is used on the very next access, so any
          // resident buffer is worth less; displace speculative leftovers
          // before touching the demand cache.
          evict_prefetch_first(ctx);
        }
        issue_prefetch(ctx, next, tree_.edge_probability(current, child),
                       /*depth=*/1, /*x=*/0, /*obl=*/false);
        ++issued;
      }
    }
  }
  ctx.estimators.end_period(issued);
}

void PerfectSelector::reclaim_for_demand(Context& ctx) {
  // Protect the lookahead block (it is needed on the very next access):
  // displace the demand LRU block instead whenever possible.
  evict_demand_first(ctx);
}

}  // namespace pfp::core::policy
