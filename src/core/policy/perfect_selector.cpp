#include "core/policy/perfect_selector.hpp"

#include "core/costben/equations.hpp"
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
        const double p = tree_.edge_probability(current, child);
        cache::PrefetchEntry entry;
        entry.block = next;
        entry.probability = p;
        entry.depth = 1;
        entry.eject_cost = costben::cost_eject_prefetch(
            ctx.timing, ctx.estimators.s(), p, /*d_b=*/1, /*x=*/0);
        entry.obl = false;
        entry.issued_period = ctx.period;
        entry.completion_ms = ctx.disks.submit(next, ctx.now_ms);
        ctx.cache.admit_prefetch(entry);
        ++ctx.metrics.prefetches_issued;
        ++ctx.metrics.tree_prefetches_issued;
        ctx.metrics.sum_prefetch_probability += p;
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
