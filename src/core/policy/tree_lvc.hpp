// tree-lvc: the Section 9.6 variant — cost-benefit prefetching plus an
// unconditional prefetch of the current node's last-visited child.
//
// The paper finds it performs no better than plain tree because >85 % of
// last-visited children are already cached (Figure 16); this policy
// exists to reproduce exactly that negative result.
#pragma once

#include "core/policy/tree_policy.hpp"

namespace pfp::core::policy {

class TreeLvc final : public TreeCostBenefit {
 public:
  explicit TreeLvc(tree::TreeConfig tree = {},
                   costben::PredictLimits limits = {},
                   ControllerConfig controller = {});

  [[nodiscard]] std::string name() const override { return "tree-lvc"; }
  void on_access(BlockId block, AccessOutcome outcome,
                 Context& ctx) override;
};

}  // namespace pfp::core::policy
