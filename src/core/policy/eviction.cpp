#include "core/policy/eviction.hpp"

#include <limits>

#include "core/costben/equations.hpp"
#include "util/assert.hpp"

namespace pfp::core::policy {

namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

double demand_lru_cost(const Context& ctx) {
  const auto& demand = ctx.cache.demand();
  if (demand.empty()) {
    return kInfinity;
  }
  // Eq. 13 with the online estimate of H(n) - H(n-1) at the demand
  // cache's current size.
  const double marginal = ctx.stack.marginal_hit_rate(demand.size());
  return costben::cost_eject_demand(ctx.timing, marginal);
}

void do_eject_prefetch(Context& ctx, const cache::PrefetchEntry& entry) {
  ctx.cache.prefetch().remove(entry.block);
  ctx.estimators.prefetch_outcome(/*accessed=*/false, entry.obl);
  ++ctx.metrics.prefetch_ejections;
}

void do_evict_demand_lru(Context& ctx) {
  ctx.cache.demand().evict_lru();
  ++ctx.metrics.demand_ejections;
}

}  // namespace

double cheapest_eviction_cost(const Context& ctx) {
  double best = demand_lru_cost(ctx);
  if (const auto entry = ctx.cache.prefetch().cheapest()) {
    best = std::min(best, entry->eject_cost);
  }
  return best;
}

double evict_cheapest(Context& ctx) {
  PFP_REQUIRE(ctx.cache.resident() > 0);
  const double demand_cost = demand_lru_cost(ctx);
  const auto prefetch_victim = ctx.cache.prefetch().cheapest();
  const double prefetch_cost =
      prefetch_victim ? prefetch_victim->eject_cost : kInfinity;
  if (prefetch_cost <= demand_cost) {
    do_eject_prefetch(ctx, *prefetch_victim);
    return prefetch_cost;
  }
  do_evict_demand_lru(ctx);
  return demand_cost;
}

void evict_prefetch_first(Context& ctx) {
  PFP_REQUIRE(ctx.cache.resident() > 0);
  auto& prefetch = ctx.cache.prefetch();
  if (!prefetch.empty()) {
    const auto victim = prefetch.oldest_any();
    PFP_DASSERT(victim.has_value());
    do_eject_prefetch(ctx, *prefetch.lookup(*victim));
    return;
  }
  do_evict_demand_lru(ctx);
}

void evict_demand_first(Context& ctx) {
  PFP_REQUIRE(ctx.cache.resident() > 0);
  if (!ctx.cache.demand().empty()) {
    do_evict_demand_lru(ctx);
    return;
  }
  const auto victim = ctx.cache.prefetch().oldest_any();
  PFP_DASSERT(victim.has_value());
  do_eject_prefetch(ctx, *ctx.cache.prefetch().lookup(*victim));
}

void eject_prefetch_block(Context& ctx, BlockId block) {
  const auto entry = ctx.cache.prefetch().lookup(block);
  PFP_REQUIRE(entry.has_value());
  do_eject_prefetch(ctx, *entry);
}

void issue_prefetch(Context& ctx, BlockId block, double p,
                    std::uint32_t depth, std::uint32_t x, bool obl) {
  cache::PrefetchEntry entry;
  entry.block = block;
  entry.probability = p;
  entry.depth = depth;
  entry.eject_cost = costben::cost_eject_prefetch(
      ctx.timing, ctx.estimators.s(), p, depth, x);
  entry.obl = obl;
  entry.issued_period = ctx.period;
  entry.completion_ms = ctx.disks.submit(block, ctx.now_ms);
  ctx.cache.admit_prefetch(entry);
  ++ctx.metrics.prefetches_issued;
  if (obl) {
    ++ctx.metrics.obl_prefetches_issued;
  } else {
    ++ctx.metrics.tree_prefetches_issued;
    ctx.metrics.sum_prefetch_probability += p;
  }
}

}  // namespace pfp::core::policy
