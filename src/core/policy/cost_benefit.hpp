// The predictor-agnostic cost-benefit controller loop (Sections 5-7).
//
// Every cost-benefit policy runs the same per-period sequence regardless
// of where its candidates come from:
//   1. price each candidate with Eq. 1 (through the per-period
//      BenefitTable), keep those with positive benefit and order them by
//      benefit (price_and_order);
//   2. walk best-first, pricing the cheapest replacement victim
//      (Eq. 11 vs Eq. 13) and Eq. 14's overhead;
//   3. prefetch while  B(b) - T_oh >= C,  stopping at the per-period cap.
//
// This header is that loop as a template over the candidate type: the LZ
// tree feeds it tree::Candidate spans, the delta-Markov and association
// policies feed costben::PredictedBlock spans.  Duck typing (fields
// block / probability / parent_probability / depth) instead of a common
// base keeps the tree's hot path copy-free — the loop body is the exact
// code the tree family always ran, so extracting it moved no metric pin.
//
// Step 1's benefit sort is std::sort, which is not stable, so the issue
// order among equal benefits depends on the order candidates arrive in
// (the tree's metric pins depend on it).  Tree and association
// candidates arrive ranked.  The delta chain hands over an unranked set
// with its rank, and step 1 ranks only the positive-benefit entries
// (~5 of ~36) before the sort: the sequence a ranked input would give.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/costben/equations.hpp"
#include "core/policy/context.hpp"
#include "core/policy/eviction.hpp"

namespace pfp::core::policy {

/// How the re-prefetch distance x of Eq. 11 is chosen for a block being
/// priced for ejection (the paper leaves x unspecified; DESIGN.md
/// discusses the default).  bench/abl03_refetch_distance measures the
/// impact of this choice.
enum class RefetchDistanceRule {
  kHorizon,      ///< x = min(d_b - 1, prefetch horizon)  (default)
  kParentDepth,  ///< x = d_b - 1 (re-prefetched at the last moment)
  kImmediate,    ///< x = 0 (ejected blocks come back as demand fetches)
};

/// Which buffer a cost-benefit policy reclaims (for demand fetches and
/// for prefetch admissions).  bench/abl04_eviction_policy compares them.
enum class ReclaimRule {
  kCostBased,      ///< cheaper of Eq. 11 / Eq. 13 victims (default)
  kPrefetchFirst,  ///< oldest prefetched block, then demand LRU
  kDemandFirst,    ///< demand LRU, then oldest prefetched block
};

/// The knobs the controller loop reads; each cost-benefit policy fills
/// this from its own config struct.
struct CostBenefitKnobs {
  std::uint32_t max_depth = 8;  ///< BenefitTable size (>= deepest candidate)
  /// Hard cap on prefetches per access period; a safety net, normally the
  /// cost-benefit inequality stops the loop first.
  std::uint32_t max_prefetches_per_period = 16;
  /// Minimum path probability a candidate must carry this period (the
  /// adaptive policy's feedback floor; 0 = no floor beyond enumeration).
  double probability_floor = 0.0;
  RefetchDistanceRule refetch = RefetchDistanceRule::kHorizon;
  /// Eq. 1 prices a candidate against re-offering it one period later at
  /// depth d-1 — valid for predictors that enumerate from the current
  /// context every access (the LZ tree, the delta chain).  Association
  /// candidates surface only when their source block is accessed; there
  /// is no later re-offer, so the alternative to prefetching is the
  /// demand fetch the block becomes: B = p_b * dT_pf(d).
  bool single_offer = false;
};

/// Evicts one buffer according to `rule` (shared by every cost-benefit
/// policy's reclaim paths).
inline void reclaim_by_rule(ReclaimRule rule, Context& ctx) {
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

/// Admits one predictor-chosen block, computing its Eq. 11 ejection price
/// under the configured re-prefetch-distance rule.
template <typename Candidate>
void admit_predicted_prefetch(Context& ctx, const Candidate& candidate,
                              RefetchDistanceRule refetch) {
  const double s = ctx.estimators.s();
  // Re-prefetch distance x for Eq. 11: by default a displaced block would
  // be fetched again once it comes within the prefetch horizon (see
  // DESIGN.md); ablation rules pin x to the extremes.
  std::uint32_t x = 0;
  switch (refetch) {
    case RefetchDistanceRule::kHorizon:
      x = std::min(candidate.depth - 1,
                   costben::prefetch_horizon(ctx.timing, s));
      break;
    case RefetchDistanceRule::kParentDepth:
      x = candidate.depth - 1;
      break;
    case RefetchDistanceRule::kImmediate:
      x = 0;
      break;
  }
  cache::PrefetchEntry entry;
  entry.block = candidate.block;
  entry.probability = candidate.probability;
  entry.depth = candidate.depth;
  entry.eject_cost = costben::cost_eject_prefetch(
      ctx.timing, s, candidate.probability, candidate.depth, x);
  entry.obl = false;
  entry.issued_period = ctx.period;
  entry.completion_ms = ctx.disks.submit(candidate.block, ctx.now_ms);
  ctx.cache.admit_prefetch(entry);
  ++ctx.metrics.prefetches_issued;
  ++ctx.metrics.tree_prefetches_issued;
  ctx.metrics.sum_prefetch_probability += candidate.probability;
}

/// Step 1 on its own: fills `order` with (benefit, index) for every
/// candidate at or above the probability floor whose Eq. 1 benefit is
/// positive, then orders it best-first.  A `rank` comparator over
/// candidates first puts those entries in rank order, so an unranked set
/// orders exactly like the same set ranked up front; with none (nullptr)
/// the candidates' own order stands.
template <typename Candidate, typename Rank = std::nullptr_t>
void price_and_order(std::span<const Candidate> candidates,
                     const CostBenefitKnobs& knobs,
                     const costben::BenefitTable& benefit_of,
                     std::vector<std::pair<double, std::size_t>>& order,
                     Rank rank = nullptr) {
  const double floor = knobs.probability_floor;
  order.clear();
  order.reserve(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const auto& c = candidates[i];
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
  if constexpr (!std::is_null_pointer_v<Rank>) {
    std::sort(order.begin(), order.end(),
              [&](const auto& a, const auto& b) {
                return rank(candidates[a.second], candidates[b.second]);
              });
  }
  std::sort(order.begin(), order.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
}

/// Runs selection / pricing / decision over one period's candidates;
/// returns the number of prefetches issued (callers fold it into the s
/// estimate).  `order` and `dtpf` are caller-owned scratch reused across
/// periods so the loop allocates nothing at steady state; `reclaim_one`
/// evicts exactly one buffer when the controller needs room (policies
/// route it through reclaim_by_rule or their own override); `rank`
/// orders an unranked candidate set (see price_and_order).  Marks the
/// cost-benefit phase boundary after the pricing sort, exactly where the
/// tree family always marked it.
template <typename Candidate, typename ReclaimFn, typename Rank = std::nullptr_t>
std::uint32_t run_cost_benefit_loop(
    std::span<const Candidate> candidates, const CostBenefitKnobs& knobs,
    Context& ctx, std::vector<std::pair<double, std::size_t>>& order,
    std::vector<double>& dtpf, ReclaimFn&& reclaim_one, Rank rank = nullptr) {
  if (candidates.empty()) {
    return 0;
  }
  // s is an EWMA refreshed once per access period, so benefits are fixed
  // within the loop: tabulate dT_pf once and process best-first.
  const costben::BenefitTable benefit_of(ctx.timing, ctx.estimators.s(),
                                         knobs.max_depth, dtpf);
  price_and_order(candidates, knobs, benefit_of, order, rank);
  util::phase_mark(ctx.phases, util::EnginePhase::kCostBenefit);

  std::uint32_t issued = 0;
  for (const auto& [benefit_value, index] : order) {
    if (issued >= knobs.max_prefetches_per_period) {
      break;
    }
    const auto& candidate = candidates[index];
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
      reclaim_one(ctx);
    }
    admit_predicted_prefetch(ctx, candidate, knobs.refetch);
    ++issued;
  }
  return issued;
}

}  // namespace pfp::core::policy
