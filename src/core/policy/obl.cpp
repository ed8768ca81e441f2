#include "core/policy/obl.hpp"

#include <algorithm>

#include "core/policy/eviction.hpp"
#include "util/assert.hpp"

namespace pfp::core::policy {

SequentialLookahead::SequentialLookahead(double quota_fraction)
    : quota_fraction_(quota_fraction) {
  PFP_REQUIRE(quota_fraction > 0.0 && quota_fraction <= 1.0);
}

bool SequentialLookahead::maybe_prefetch_next(BlockId block, Context& ctx) {
  const BlockId target = block + 1;
  if (ctx.cache.contains(target)) {
    return false;
  }
  auto& prefetch = ctx.cache.prefetch();
  const auto quota = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             quota_fraction_ *
             static_cast<double>(ctx.cache.total_blocks())));
  if (prefetch.obl_count() >= quota) {
    // At quota: recycle the oldest OBL buffer for the new prefetch.
    const auto victim = prefetch.oldest_obl();
    PFP_DASSERT(victim.has_value());
    eject_prefetch_block(ctx, *victim);
  } else if (ctx.cache.free_buffers() == 0) {
    // Under quota but the pool is full: grow the OBL share at the expense
    // of the demand cache (that is what the 10 % cap is for).
    evict_demand_first(ctx);
  }
  // Eq. 11 with d_b = 1, x = 0: losing the block costs a full demand
  // re-fetch weighted by the odds it would actually be used.
  issue_prefetch(ctx, target, ctx.estimators.obl_h(), /*depth=*/1, /*x=*/0,
                 /*obl=*/true);
  return true;
}

}  // namespace pfp::core::policy
