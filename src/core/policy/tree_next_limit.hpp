// tree-next-limit: cost-benefit tree prefetching combined with quota-
// limited one-block-lookahead (Section 9).
//
// The OBL half removes compulsory misses on sequential runs; the tree
// half removes repeat misses on learned non-sequential patterns.  The
// paper observes the two reductions are additive because they target
// disjoint miss classes.
#pragma once

#include "core/policy/obl.hpp"
#include "core/policy/tree_policy.hpp"

namespace pfp::core::policy {

class TreeNextLimit final : public TreeCostBenefit {
 public:
  /// Defaults: the controller's defaults and a 10 % OBL quota.
  explicit TreeNextLimit(tree::TreeConfig tree = {},
                         costben::PredictLimits limits = {},
                         ControllerConfig controller = {},
                         double quota_fraction = 0.10);

  [[nodiscard]] std::string name() const override { return "tree-next-limit"; }
  void on_access(BlockId block, AccessOutcome outcome,
                 Context& ctx) override;

 private:
  SequentialLookahead lookahead_;
};

}  // namespace pfp::core::policy
