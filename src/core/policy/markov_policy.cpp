#include "core/policy/markov_policy.hpp"

#include <span>

#include "util/phase.hpp"

namespace pfp::core::policy {

MarkovCostBenefit::MarkovCostBenefit(markov::MarkovConfig model,
                                     costben::PredictLimits limits,
                                     ControllerConfig controller)
    : limits_(limits), controller_(controller), model_(model) {}

void MarkovCostBenefit::on_access(BlockId block, AccessOutcome outcome,
                                  Context& ctx) {
  (void)outcome;
  model_.observe(block);
  ctx.metrics.tree_nodes = model_.row_count();
  ctx.metrics.tree_bytes = model_.actual_memory_bytes();
  util::phase_mark(ctx.phases, util::EnginePhase::kPredictorUpdate);

  const costben::BenefitTable benefit_of(ctx.timing, ctx.estimators.s(),
                                         limits_.max_depth, dtpf_);
  // Past the payable depth Eq. 1 prices every chain entry <= 0: walk no
  // deeper than what the controller could issue.
  costben::PredictLimits walk = limits_;
  walk.max_depth = benefit_of.payable_depth();
  candidates_.clear();
  model_.predict_into(walk, candidates_);
  util::phase_mark(ctx.phases, util::EnginePhase::kEnumeration);

  // The chain hands over an unranked set; the loop ranks only the
  // candidates it prices positive.
  const std::uint32_t issued = run_cost_benefit_loop(
      std::span<const costben::PredictedBlock>(candidates_), controller_,
      CostBenefitKnobs{}, benefit_of, ctx, order_, /*rank=*/true);
  ctx.estimators.end_period(issued);
}

void MarkovCostBenefit::reclaim_for_demand(Context& ctx) {
  // Section 6.2: the same cost equations pick the replacement victim for
  // demand fetches (unless an ablation overrides the rule).
  reclaim_by_rule(controller_.reclaim, ctx);
}

std::uint32_t MarkovCostBenefit::predictor_state_tag() const {
  return kPredictorMarkov;
}

void MarkovCostBenefit::save_predictor_state(
    std::vector<std::uint8_t>& out) const {
  model_.serialize(out);
}

bool MarkovCostBenefit::load_predictor_state(util::ByteReader& in) {
  model_ = markov::DeltaMarkov::deserialize(in, model_.config());
  return true;
}

}  // namespace pfp::core::policy
