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

#include "core/costben/candidate.hpp"
#include "core/markov/markov_model.hpp"
#include "core/policy/cost_benefit.hpp"
#include "core/policy/prefetcher.hpp"

namespace pfp::core::policy {

class MarkovCostBenefit final : public Prefetcher {
 public:
  explicit MarkovCostBenefit(markov::MarkovConfig model = {},
                             costben::PredictLimits limits = {},
                             ControllerConfig controller = {});

  [[nodiscard]] std::string name() const override { return "markov"; }
  void on_access(BlockId block, AccessOutcome outcome,
                 Context& ctx) override;
  void reclaim_for_demand(Context& ctx) override;

  [[nodiscard]] std::uint32_t predictor_state_tag() const override;
  void save_predictor_state(std::vector<std::uint8_t>& out) const override;
  bool load_predictor_state(util::ByteReader& in) override;

  [[nodiscard]] const markov::DeltaMarkov& model() const noexcept {
    return model_;
  }

 private:
  costben::PredictLimits limits_;
  ControllerConfig controller_;
  markov::DeltaMarkov model_;
  /// Reused across access periods so the per-access hot path performs no
  /// heap allocation once the buffers reach steady-state size.
  std::vector<costben::PredictedBlock> candidates_;
  std::vector<std::pair<double, std::size_t>> order_;
  std::vector<double> dtpf_;  ///< per-period Eq. 2 table (BenefitTable)
};

}  // namespace pfp::core::policy
