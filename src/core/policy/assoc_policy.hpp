// assoc: MITHRIL-style association mining under the paper's cost-benefit
// controller.
//
// The association miner (core/assoc) learns which blocks tend to follow
// a given block within a short window even across interleaved traffic;
// on each access the mined associations of the accessed block become the
// candidate stream for the shared run_cost_benefit_loop.  Association
// candidates are parentless — the prediction is conditioned directly on
// the observed access, not on an earlier prefetch — so they use the
// parentless p_x convention documented in costben/candidate.hpp and pay
// no Eq. 14 overhead.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/assoc/association_miner.hpp"
#include "core/costben/candidate.hpp"
#include "core/policy/cost_benefit.hpp"
#include "core/policy/prefetcher.hpp"

namespace pfp::core::policy {

class AssocCostBenefit final : public Prefetcher {
 public:
  explicit AssocCostBenefit(assoc::AssocConfig miner = {},
                            costben::PredictLimits limits = {},
                            ControllerConfig controller = {});

  [[nodiscard]] std::string name() const override { return "assoc"; }
  void on_access(BlockId block, AccessOutcome outcome,
                 Context& ctx) override;
  void reclaim_for_demand(Context& ctx) override;

  [[nodiscard]] std::uint32_t predictor_state_tag() const override;
  void save_predictor_state(std::vector<std::uint8_t>& out) const override;
  bool load_predictor_state(util::ByteReader& in) override;

  [[nodiscard]] const assoc::AssociationMiner& miner() const noexcept {
    return miner_;
  }

 private:
  costben::PredictLimits limits_;
  ControllerConfig controller_;
  assoc::AssociationMiner miner_;
  /// Reused across access periods so the per-access hot path performs no
  /// heap allocation once the buffers reach steady-state size.
  std::vector<costben::PredictedBlock> candidates_;
  std::vector<std::pair<double, std::size_t>> order_;
  std::vector<double> dtpf_;  ///< per-period Eq. 2 table (BenefitTable)
};

}  // namespace pfp::core::policy
