// The paper's contribution: cost-benefit predictive prefetching ("tree").
//
// Each access period (Sections 4 and 7):
//   1. enumerate prefetch candidates from the tree with their path
//      probabilities, no deeper than the period's payable depth (past it
//      Eq. 1 is <= 0), and pick the highest-benefit block (Eq. 1);
//   2. price the cheapest replacement victim (Eq. 11 vs Eq. 13);
//   3. prefetch while  B(b) - T_oh >= C  (Eq. 14 overhead), repeating
//      until the inequality fails or the per-period issue cap is hit.
//
// s, the average number of prefetches per access period, feeds back into
// the stall model (Eq. 6) through an online estimate updated at the end
// of every period.
#pragma once

#include "core/costben/candidate.hpp"
#include "core/policy/cost_benefit.hpp"
#include "core/policy/tree_base.hpp"
#include "core/tree/enumerator.hpp"

namespace pfp::core::policy {

class TreeCostBenefit : public TreeInstrumentedPrefetcher {
 public:
  explicit TreeCostBenefit(tree::TreeConfig tree = {},
                           costben::PredictLimits limits = {},
                           ControllerConfig controller = {});

  [[nodiscard]] std::string name() const override { return "tree"; }
  void on_access(BlockId block, AccessOutcome outcome,
                 Context& ctx) override;
  void reclaim_for_demand(Context& ctx) override;

 protected:
  /// Minimum path probability a candidate must carry to be considered
  /// this period.  The base policy imposes none beyond the enumerator's
  /// static cutoff; tree-adaptive overrides this with its feedback floor.
  [[nodiscard]] virtual double probability_floor() const noexcept { return 0.0; }

  /// Runs selection/pricing/decision for this period via the shared
  /// run_cost_benefit_loop; returns the number of prefetches issued
  /// (callers fold it into the s estimate).
  std::uint32_t run_cost_benefit(Context& ctx);

  costben::PredictLimits limits_;
  ControllerConfig controller_;
  /// Reused across access periods so the per-access hot path performs no
  /// heap allocation once the buffers reach steady-state size.
  tree::CandidateEnumerator enumerator_;
  std::vector<std::pair<double, std::size_t>> order_;
  std::vector<double> dtpf_;  ///< per-period Eq. 2 table (BenefitTable)
};

}  // namespace pfp::core::policy
