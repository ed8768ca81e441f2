#include "core/policy/tree_adaptive.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace pfp::core::policy {

TreeAdaptive::TreeAdaptive(tree::TreeConfig tree,
                           costben::PredictLimits limits,
                           ControllerConfig controller,
                           AdaptiveConfig adaptive)
    : TreeCostBenefit(tree, limits, controller),
      adaptive_(adaptive),
      floor_(adaptive.initial_floor) {
  PFP_REQUIRE(adaptive_.min_floor > 0.0);
  PFP_REQUIRE(adaptive_.min_floor <= adaptive_.initial_floor);
  PFP_REQUIRE(adaptive_.initial_floor <= adaptive_.max_floor);
  PFP_REQUIRE(adaptive_.h_low < adaptive_.h_high);
  PFP_REQUIRE(adaptive_.tighten_factor > 1.0);
  PFP_REQUIRE(adaptive_.relax_factor < 1.0);
}

void TreeAdaptive::on_access(BlockId block, AccessOutcome outcome,
                             Context& ctx) {
  // Feedback before this period's decisions: h is the EWMA fate of past
  // tree prefetches (hits vs ejected-unused).
  const double h = ctx.estimators.h();
  if (h < adaptive_.h_low) {
    floor_ = std::min(floor_ * adaptive_.tighten_factor,
                      adaptive_.max_floor);
  } else if (h > adaptive_.h_high) {
    floor_ = std::max(floor_ * adaptive_.relax_factor, adaptive_.min_floor);
  }
  TreeCostBenefit::on_access(block, outcome, ctx);
}

}  // namespace pfp::core::policy
