#include "core/policy/cost_benefit.hpp"

#include <algorithm>

#include "core/policy/eviction.hpp"
#include "util/phase.hpp"

namespace pfp::core::policy {

void reclaim_by_rule(ReclaimRule rule, Context& ctx) {
  switch (rule) {
    case ReclaimRule::kCostBased:
      evict_cheapest(ctx);
      return;
    case ReclaimRule::kPrefetchFirst:
      evict_prefetch_first(ctx);
      return;
    case ReclaimRule::kDemandFirst:
      evict_demand_first(ctx);
      return;
  }
}

void admit_predicted_prefetch(Context& ctx,
                              const costben::PredictedBlock& candidate,
                              RefetchDistanceRule refetch) {
  // Re-prefetch distance x for Eq. 11: by default a displaced block would
  // be fetched again once it comes within the prefetch horizon (see
  // DESIGN.md); ablation rules pin x to the extremes.
  std::uint32_t x = 0;
  switch (refetch) {
    case RefetchDistanceRule::kHorizon:
      x = std::min(candidate.depth - 1,
                   costben::prefetch_horizon(ctx.timing, ctx.estimators.s()));
      break;
    case RefetchDistanceRule::kParentDepth:
      x = candidate.depth - 1;
      break;
    case RefetchDistanceRule::kImmediate:
      x = 0;
      break;
  }
  issue_prefetch(ctx, candidate.block, candidate.probability, candidate.depth,
                 x, /*obl=*/false);
}

void price_and_order(std::span<const costben::PredictedBlock> candidates,
                     const CostBenefitKnobs& knobs,
                     const costben::BenefitTable& benefit_of,
                     std::vector<std::pair<double, std::size_t>>& order,
                     bool rank) {
  const double floor = knobs.probability_floor;
  order.clear();
  order.reserve(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const costben::PredictedBlock& c = candidates[i];
    if (c.probability < floor) {
      continue;  // below the (possibly adaptive) precision floor
    }
    const double b =
        knobs.single_offer
            ? c.probability * benefit_of.dtpf(c.depth)
            : benefit_of(c.probability, c.parent_probability, c.depth);
    if (b > 0.0) {
      order.emplace_back(b, i);
    }
  }
  if (rank) {
    std::sort(order.begin(), order.end(), [&](const auto& a, const auto& b) {
      return costben::RankOrder{}(candidates[a.second], candidates[b.second]);
    });
  }
  std::sort(order.begin(), order.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
}

std::uint32_t run_cost_benefit_loop(
    std::span<const costben::PredictedBlock> candidates,
    const ControllerConfig& controller, const CostBenefitKnobs& knobs,
    const costben::BenefitTable& benefit_of, Context& ctx,
    std::vector<std::pair<double, std::size_t>>& order, bool rank) {
  if (candidates.empty()) {
    return 0;
  }
  price_and_order(candidates, knobs, benefit_of, order, rank);
  util::phase_mark(ctx.phases, util::EnginePhase::kCostBenefit);

  std::uint32_t issued = 0;
  for (const auto& [benefit_value, index] : order) {
    if (issued >= controller.max_prefetches_per_period) {
      break;
    }
    const costben::PredictedBlock& candidate = candidates[index];
    ++ctx.metrics.candidates_chosen;
    if (ctx.cache.contains(candidate.block)) {
      // Figure 7: chosen, but already resident in one of the caches.
      ++ctx.metrics.candidates_already_cached;
      continue;
    }
    const double overhead = costben::prefetch_overhead(
        ctx.timing, candidate.probability, candidate.parent_probability);
    const double cost = ctx.cache.free_buffers() > 0
                            ? 0.0
                            : cheapest_eviction_cost(ctx);
    if (benefit_value - overhead < cost) {
      // Section 7 step 4: stop once replacing a block costs more than
      // prefetching the next-best block gains.
      break;
    }
    if (ctx.cache.free_buffers() == 0) {
      reclaim_by_rule(controller.reclaim, ctx);
    }
    admit_predicted_prefetch(ctx, candidate, controller.refetch);
    ++issued;
  }
  return issued;
}

}  // namespace pfp::core::policy
