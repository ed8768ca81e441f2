// The paper's contribution: cost-benefit predictive prefetching ("tree").
//
// Each access period (Sections 4 and 7):
//   1. enumerate prefetch candidates from the tree with their path
//      probabilities and pick the highest-benefit block (Eq. 1);
//   2. price the cheapest replacement victim (Eq. 11 vs Eq. 13);
//   3. prefetch while  B(b) - T_oh >= C  (Eq. 14 overhead), repeating
//      until the inequality fails or the per-period issue cap is hit.
//
// s, the average number of prefetches per access period, feeds back into
// the stall model (Eq. 6) through an online estimate updated at the end
// of every period.
#pragma once

#include "core/policy/cost_benefit.hpp"
#include "core/policy/tree_base.hpp"
#include "core/tree/enumerator.hpp"

namespace pfp::core::policy {

struct TreePolicyConfig {
  tree::TreeConfig tree;
  tree::EnumeratorLimits limits;
  /// Hard cap on prefetches per access period; a safety net, normally the
  /// cost-benefit inequality stops the loop first.
  std::uint32_t max_prefetches_per_period = 16;
  RefetchDistanceRule refetch = RefetchDistanceRule::kHorizon;
  ReclaimRule reclaim = ReclaimRule::kCostBased;
};

class TreeCostBenefit : public TreeInstrumentedPrefetcher {
 public:
  TreeCostBenefit();  // default config
  explicit TreeCostBenefit(TreePolicyConfig config);

  [[nodiscard]] std::string name() const override { return "tree"; }
  void on_access(BlockId block, AccessOutcome outcome,
                 Context& ctx) override;
  void reclaim_for_demand(Context& ctx) override;

  [[nodiscard]] const TreePolicyConfig& config() const noexcept { return config_; }

 protected:
  /// Minimum path probability a candidate must carry to be considered
  /// this period.  The base policy imposes none beyond the enumerator's
  /// static cutoff; tree-adaptive overrides this with its feedback floor.
  [[nodiscard]] virtual double probability_floor() const noexcept { return 0.0; }

  /// Introspection (predictions_into) enumerates with the controller's
  /// configured limits, matching what run_cost_benefit prices.
  [[nodiscard]] tree::EnumeratorLimits prediction_limits() const override {
    return config_.limits;
  }

  /// Runs selection/pricing/decision for this period via the shared
  /// run_cost_benefit_loop; returns the number of prefetches issued
  /// (callers fold it into the s estimate).
  std::uint32_t run_cost_benefit(Context& ctx);

  /// Evicts one buffer according to the configured reclaim rule.
  void reclaim_one(Context& ctx);

  TreePolicyConfig config_;
  /// Reused across access periods so the per-access hot path performs no
  /// heap allocation once the buffers reach steady-state size.
  tree::CandidateEnumerator enumerator_;
  std::vector<std::pair<double, std::size_t>> order_;
  std::vector<double> dtpf_;  ///< per-period Eq. 2 table (BenefitTable)
};

}  // namespace pfp::core::policy
