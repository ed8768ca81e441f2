// markov: Pangloss-style delta-Markov prediction under the paper's
// cost-benefit controller.
//
// Swaps the LZ tree out of the "tree" policy's seat and plugs the
// compressed delta-Markov chain (core/markov) in: every access updates
// the chain, the chain enumerates candidate blocks with chain-product
// probabilities, and the shared run_cost_benefit_loop prices them with
// Eq. 1 / Eq. 11 / Eq. 14 exactly as it prices tree candidates.  The
// predictor zoo exists to show the controller is predictor-agnostic —
// only candidate generation differs between this policy and "tree".
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/markov/markov_model.hpp"
#include "core/policy/cost_benefit.hpp"
#include "core/policy/prefetcher.hpp"

namespace pfp::core::policy {

struct MarkovPolicyConfig {
  markov::MarkovConfig model;
  markov::MarkovPredictLimits limits;
  /// Hard cap on prefetches per access period; a safety net, normally the
  /// cost-benefit inequality stops the loop first.
  std::uint32_t max_prefetches_per_period = 16;
  RefetchDistanceRule refetch = RefetchDistanceRule::kHorizon;
  ReclaimRule reclaim = ReclaimRule::kCostBased;
};

class MarkovCostBenefit final : public Prefetcher {
 public:
  MarkovCostBenefit();  // default config
  explicit MarkovCostBenefit(MarkovPolicyConfig config);

  [[nodiscard]] std::string name() const override { return "markov"; }
  void on_access(BlockId block, AccessOutcome outcome,
                 Context& ctx) override;
  void reclaim_for_demand(Context& ctx) override;

  [[nodiscard]] std::uint32_t predictor_state_tag() const override;
  void save_predictor_state(std::vector<std::uint8_t>& out) const override;
  bool load_predictor_state(util::ByteReader& in) override;
  std::size_t predictions_into(
      std::vector<costben::PredictedBlock>& out) const override;

  [[nodiscard]] const MarkovPolicyConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const markov::DeltaMarkov& model() const noexcept {
    return model_;
  }

 private:
  MarkovPolicyConfig config_;
  markov::DeltaMarkov model_;
  /// Reused across access periods so the per-access hot path performs no
  /// heap allocation once the buffers reach steady-state size.
  std::vector<costben::PredictedBlock> candidates_;
  std::vector<std::pair<double, std::size_t>> order_;
  std::vector<double> dtpf_;  ///< per-period Eq. 2 table (BenefitTable)
};

}  // namespace pfp::core::policy
