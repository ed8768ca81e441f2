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
#include "core/policy/cost_benefit.hpp"
#include "core/policy/prefetcher.hpp"

namespace pfp::core::policy {

struct AssocPolicyConfig {
  assoc::AssocConfig miner;
  assoc::AssocPredictLimits limits;
  /// Hard cap on prefetches per access period; a safety net, normally the
  /// cost-benefit inequality stops the loop first.
  std::uint32_t max_prefetches_per_period = 16;
  RefetchDistanceRule refetch = RefetchDistanceRule::kHorizon;
  ReclaimRule reclaim = ReclaimRule::kCostBased;
};

class AssocCostBenefit final : public Prefetcher {
 public:
  AssocCostBenefit();  // default config
  explicit AssocCostBenefit(AssocPolicyConfig config);

  [[nodiscard]] std::string name() const override { return "assoc"; }
  void on_access(BlockId block, AccessOutcome outcome,
                 Context& ctx) override;
  void reclaim_for_demand(Context& ctx) override;

  [[nodiscard]] std::uint32_t predictor_state_tag() const override;
  void save_predictor_state(std::vector<std::uint8_t>& out) const override;
  bool load_predictor_state(util::ByteReader& in) override;
  std::size_t predictions_into(
      std::vector<costben::PredictedBlock>& out) const override;

  [[nodiscard]] const AssocPolicyConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const assoc::AssociationMiner& miner() const noexcept {
    return miner_;
  }

 private:
  AssocPolicyConfig config_;
  assoc::AssociationMiner miner_;
  BlockId last_block_ = 0;  ///< predictions_into introspects from here
  bool has_last_block_ = false;
  /// Reused across access periods so the per-access hot path performs no
  /// heap allocation once the buffers reach steady-state size.
  std::vector<costben::PredictedBlock> candidates_;
  std::vector<std::pair<double, std::size_t>> order_;
  std::vector<double> dtpf_;  ///< per-period Eq. 2 table (BenefitTable)
};

}  // namespace pfp::core::policy
