#include "core/policy/markov_policy.hpp"

#include <algorithm>
#include <span>

#include "util/phase.hpp"

namespace pfp::core::policy {

MarkovCostBenefit::MarkovCostBenefit()
    : MarkovCostBenefit(MarkovPolicyConfig{}) {}

MarkovCostBenefit::MarkovCostBenefit(MarkovPolicyConfig config)
    : config_(config), model_(config.model) {}

void MarkovCostBenefit::on_access(BlockId block, AccessOutcome outcome,
                                  Context& ctx) {
  (void)outcome;
  model_.observe(block);
  ctx.metrics.tree_nodes = model_.row_count();
  ctx.metrics.tree_bytes = model_.actual_memory_bytes();
  util::phase_mark(ctx.phases, util::EnginePhase::kPredictorUpdate);

  candidates_.clear();
  model_.predict_into(config_.limits, candidates_);
  util::phase_mark(ctx.phases, util::EnginePhase::kEnumeration);

  CostBenefitKnobs knobs;
  knobs.max_depth = config_.limits.max_depth;
  knobs.max_prefetches_per_period = config_.max_prefetches_per_period;
  knobs.refetch = config_.refetch;
  // The chain hands over an unranked set; the loop ranks only the
  // candidates it prices positive.
  const std::uint32_t issued = run_cost_benefit_loop(
      std::span<const costben::PredictedBlock>(candidates_), knobs, ctx,
      order_, dtpf_, [this](Context& c) { reclaim_by_rule(config_.reclaim, c); },
      markov::DeltaMarkov::ranks_before);
  ctx.estimators.end_period(issued);
}

void MarkovCostBenefit::reclaim_for_demand(Context& ctx) {
  // Section 6.2: the same cost equations pick the replacement victim for
  // demand fetches (unless an ablation overrides the rule).
  reclaim_by_rule(config_.reclaim, ctx);
}

std::uint32_t MarkovCostBenefit::predictor_state_tag() const {
  return kPredictorMarkov;
}

void MarkovCostBenefit::save_predictor_state(
    std::vector<std::uint8_t>& out) const {
  model_.serialize(out);
}

bool MarkovCostBenefit::load_predictor_state(util::ByteReader& in) {
  model_ = markov::DeltaMarkov::deserialize(in, config_.model);
  return true;
}

std::size_t MarkovCostBenefit::predictions_into(
    std::vector<costben::PredictedBlock>& out) const {
  const auto first = static_cast<std::ptrdiff_t>(out.size());
  const std::size_t n = model_.predict_into(config_.limits, out);
  std::sort(out.begin() + first, out.end(), markov::DeltaMarkov::ranks_before);
  return n;
}

}  // namespace pfp::core::policy
