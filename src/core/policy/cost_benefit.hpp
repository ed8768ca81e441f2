// The predictor-agnostic cost-benefit controller loop (Sections 5-7).
//
// Every cost-benefit policy runs the same per-period sequence regardless
// of where its candidates come from:
//   0. build the period's BenefitTable (Eq. 2 at this period's s) before
//      the predictor walks, and walk chained predictors (tree, delta
//      chain) only to its payable depth D: past D, Eq. 1 prices every
//      candidate <= 0, so deeper candidates could never be issued.  At
//      the paper's constants D = 1.  The association family keeps its
//      whole walk: single-offer pricing (p * dT_pf(d)) is positive at any
//      depth;
//   1. price each candidate with Eq. 1 (through that table), keep those
//      with positive benefit and order them by benefit
//      (price_and_order);
//   2. walk best-first, pricing the cheapest replacement victim
//      (Eq. 11 vs Eq. 13) and Eq. 14's overhead;
//   3. prefetch while  B(b) - T_oh >= C,  stopping at the per-period cap.
//
// The loop is compiled once over costben::PredictedBlock spans, the one
// candidate type the LZ tree, the delta-Markov chain and the association
// miner all emit, and reclaims by a ReclaimRule.  Every family reads the
// same ControllerConfig (one field of PolicySpec).
//
// Step 1's benefit sort is std::sort, which is not stable, so the issue
// order among equal benefits depends on the order candidates arrive in
// (the tree's metric pins depend on it).  Tree and association
// candidates arrive ranked.  The delta chain hands over an unranked set,
// and step 1 ranks only the positive-benefit entries (a few of at most
// row_width = 8 at payable depth 1) by costben::RankOrder before the
// sort: the sequence a ranked input would give.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/costben/candidate.hpp"
#include "core/costben/equations.hpp"
#include "core/policy/context.hpp"

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

/// The controller's settings, shared by every cost-benefit family.
struct ControllerConfig {
  /// Hard cap on prefetches per access period; a safety net, normally the
  /// cost-benefit inequality stops the loop first.
  std::uint32_t max_prefetches_per_period = 16;
  RefetchDistanceRule refetch = RefetchDistanceRule::kHorizon;
  ReclaimRule reclaim = ReclaimRule::kCostBased;
};

/// What the pricing step reads besides the controller's settings; each
/// family fills this per period.
struct CostBenefitKnobs {
  /// Minimum path probability a candidate must carry this period (the
  /// adaptive policy's feedback floor; 0 = no floor beyond enumeration).
  double probability_floor = 0.0;
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
void reclaim_by_rule(ReclaimRule rule, Context& ctx);

/// Admits one predictor-chosen block, computing its Eq. 11 ejection price
/// under the configured re-prefetch-distance rule.
void admit_predicted_prefetch(Context& ctx,
                              const costben::PredictedBlock& candidate,
                              RefetchDistanceRule refetch);

/// Step 1 on its own: fills `order` with (benefit, index) for every
/// candidate at or above the probability floor whose Eq. 1 benefit is
/// positive, then orders it best-first.  With `rank`, those entries are
/// first put in costben::RankOrder, so an unranked set orders exactly
/// like the same set ranked up front; without it the candidates' own
/// order stands.
void price_and_order(std::span<const costben::PredictedBlock> candidates,
                     const CostBenefitKnobs& knobs,
                     const costben::BenefitTable& benefit_of,
                     std::vector<std::pair<double, std::size_t>>& order,
                     bool rank = false);

/// Runs selection / pricing / decision over one period's candidates,
/// priced through `benefit_of`: step 0's table, dT_pf(0..max_depth) at
/// this period's s for the predictor's walk limit max_depth, so every
/// candidate it can emit has a row and payable_depth() is min(max_depth,
/// D).  Returns the number of prefetches issued (callers fold it into the s
/// estimate).  `order` is caller-owned scratch reused across periods so
/// the loop allocates nothing at steady state; the controller reclaims by
/// `controller.reclaim` when it needs room; `rank` orders an unranked
/// candidate set (see price_and_order).  Marks the cost-benefit phase
/// boundary after the pricing sort, exactly where the tree family always
/// marked it.
std::uint32_t run_cost_benefit_loop(
    std::span<const costben::PredictedBlock> candidates,
    const ControllerConfig& controller, const CostBenefitKnobs& knobs,
    const costben::BenefitTable& benefit_of, Context& ctx,
    std::vector<std::pair<double, std::size_t>>& order, bool rank = false);

}  // namespace pfp::core::policy
