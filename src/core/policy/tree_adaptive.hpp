// tree-adaptive: the paper's stated future work, implemented.
//
// Section 9.2.2: "Since the prefetch cache hit rate is relatively low, we
// are working on strategies to reduce the number of blocks prefetched by
// eliminating mispredicted blocks."  This variant adds a feedback loop on
// top of the cost-benefit controller: a dynamic probability floor that
// rises while the measured tree-prefetch hit ratio h is poor (squeezing
// out speculative candidates) and relaxes while h is comfortably high.
// bench/abl05_adaptive_precision compares it with plain tree.
#pragma once

#include "core/policy/tree_policy.hpp"

namespace pfp::core::policy {

struct AdaptiveConfig {
  double h_low = 0.50;       ///< tighten the floor below this hit ratio
  double h_high = 0.85;      ///< relax the floor above this hit ratio
  double initial_floor = 0.02;
  double min_floor = 0.005;
  double max_floor = 0.60;
  double tighten_factor = 1.10;  ///< floor *= this when h < h_low
  double relax_factor = 0.95;    ///< floor *= this when h > h_high
};

class TreeAdaptive final : public TreeCostBenefit {
 public:
  explicit TreeAdaptive(tree::TreeConfig tree = {},
                        costben::PredictLimits limits = {},
                        ControllerConfig controller = {},
                        AdaptiveConfig adaptive = {});

  [[nodiscard]] std::string name() const override { return "tree-adaptive"; }
  void on_access(BlockId block, AccessOutcome outcome,
                 Context& ctx) override;

  [[nodiscard]] double probability_floor() const noexcept override { return floor_; }

 private:
  AdaptiveConfig adaptive_;
  double floor_;
};

}  // namespace pfp::core::policy
