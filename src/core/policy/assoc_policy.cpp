#include "core/policy/assoc_policy.hpp"

#include <span>

#include "util/phase.hpp"

namespace pfp::core::policy {

AssocCostBenefit::AssocCostBenefit(assoc::AssocConfig miner,
                                   costben::PredictLimits limits,
                                   ControllerConfig controller)
    : limits_(limits), controller_(controller), miner_(miner) {}

void AssocCostBenefit::on_access(BlockId block, AccessOutcome outcome,
                                 Context& ctx) {
  (void)outcome;
  miner_.observe(block);
  ctx.metrics.tree_nodes = miner_.row_count();
  ctx.metrics.tree_bytes = miner_.actual_memory_bytes();
  util::phase_mark(ctx.phases, util::EnginePhase::kPredictorUpdate);

  // Single-offer pricing is positive at any depth, so unlike the chained
  // families the association walk is not cut at the payable depth.
  const costben::BenefitTable benefit_of(ctx.timing, ctx.estimators.s(),
                                         limits_.max_depth, dtpf_);
  candidates_.clear();
  miner_.predict_into(block, limits_, candidates_);
  util::phase_mark(ctx.phases, util::EnginePhase::kEnumeration);

  CostBenefitKnobs knobs;
  // An association surfaces only while its source is the current access;
  // Eq. 1's defer-to-depth-(d-1) alternative never materializes for it.
  knobs.single_offer = true;
  const std::uint32_t issued = run_cost_benefit_loop(
      std::span<const costben::PredictedBlock>(candidates_), controller_,
      knobs, benefit_of, ctx, order_);
  ctx.estimators.end_period(issued);
}

void AssocCostBenefit::reclaim_for_demand(Context& ctx) {
  // Section 6.2: the same cost equations pick the replacement victim for
  // demand fetches (unless an ablation overrides the rule).
  reclaim_by_rule(controller_.reclaim, ctx);
}

std::uint32_t AssocCostBenefit::predictor_state_tag() const {
  return kPredictorAssoc;
}

void AssocCostBenefit::save_predictor_state(
    std::vector<std::uint8_t>& out) const {
  miner_.serialize(out);
}

bool AssocCostBenefit::load_predictor_state(util::ByteReader& in) {
  miner_ = assoc::AssociationMiner::deserialize(in, miner_.config());
  return true;
}

}  // namespace pfp::core::policy
