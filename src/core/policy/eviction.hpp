// Buffer admission and replacement-victim selection shared by the
// policies.
//
// issue_prefetch is the one path by which any policy puts a prefetched
// block into the cache.  Victim selection comes in two families:
//  * cost-based (Sections 6/7): price the demand cache's LRU buffer with
//    Eq. 13 (measured marginal hit rate) and the prefetch cache's
//    cheapest entry with its stored Eq. 11 cost, and evict the cheaper —
//    used by all cost-benefit policies, for demand reclaims and prefetch
//    admissions alike ("Cost equations 11 and 13 also determine the best
//    buffer to replace during a demand fetch operation").
//  * simple: recency rules for the baseline policies that predate the
//    cost model (oldest prefetch first, or demand LRU first).
//
// All evictors record ejection metrics and report unused-prefetch fates
// to the h estimators.
#pragma once

#include "core/policy/context.hpp"

namespace pfp::core::policy {

/// Cost of the cheapest evictable buffer (Eq. 11 vs Eq. 13) without
/// evicting.  Infinity if both caches are empty.
double cheapest_eviction_cost(const Context& ctx);

/// Evicts the cheapest buffer per the cost model.  Returns its cost.
/// Requires at least one resident block.
double evict_cheapest(Context& ctx);

/// Evicts the oldest prefetch-cache entry if any, else the demand LRU
/// block.  Requires at least one resident block.
void evict_prefetch_first(Context& ctx);

/// Evicts the demand LRU block if any, else the oldest prefetch entry.
/// Requires at least one resident block.
void evict_demand_first(Context& ctx);

/// Removes a specific prefetch-cache block (quota enforcement), recording
/// its fate.
void eject_prefetch_block(Context& ctx, BlockId block);

/// Issues one prefetch of `block` into a free buffer (the caller made
/// room): prices its ejection with Eq. 11 at path probability `p`,
/// distance d_b = `depth` and re-prefetch distance `x`, submits the read
/// to the disk model, admits the entry and counts it — as a
/// one-block-lookahead prefetch when `obl`, else as a predicted one
/// (tree_prefetches_issued and Figure 10's probability sum).
void issue_prefetch(Context& ctx, BlockId block, double p,
                    std::uint32_t depth, std::uint32_t x, bool obl);

}  // namespace pfp::core::policy
