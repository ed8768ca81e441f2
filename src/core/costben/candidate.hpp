// The controller's candidate vocabulary, shared by every predictor family.
//
// The cost-benefit controller (Eq. 1-14) is predictor-agnostic: every
// decision it makes consumes only a block id, a path probability p_b, the
// parent-path probability p_x, and a prefetch distance d_b.  This header
// names that contract: the one candidate type every family emits (LZ
// tree, delta-Markov chain, sporadic-association miner), the one set of
// cut-offs every family's candidate walk applies, and the one rank over
// candidates.  The controller is compiled once against these types and
// knows none of the families'.  costben/ must stay free of predictor
// includes (core/tree, core/markov, core/assoc — enforced by
// scripts/lint/check_conventions.py layering), which is why the block id
// is a plain integer here rather than trace::BlockId.
#pragma once

#include <cstddef>
#include <cstdint>

namespace pfp::core::costben {

/// One predicted block in the controller's vocabulary — exactly the
/// inputs of Equation 1's benefit and Equation 14's overhead.
/// Parentless-candidate convention: predictors whose candidates are not
/// links in a chain (the association miner conditions directly on the
/// observed access) have no meaningful p_x.  They set parent_probability
/// to 1.0 at depth 1 and to the candidate's own probability deeper, which
/// reduces Eq. 14's overhead to zero — the candidate is judged purely on
/// its own odds.  Predictors that additionally offer a candidate only
/// once (no re-enumeration next period) should also set the controller's
/// single_offer knob so Eq. 1 prices against the demand fetch instead of
/// a deferred re-offer; see CostBenefitKnobs::single_offer.
struct PredictedBlock {
  std::uint64_t block = 0;
  double probability = 0.0;         ///< p_b: path probability of the block
  double parent_probability = 1.0;  ///< p_x: path probability of its parent
  std::uint32_t depth = 1;          ///< d_b: access periods until expected use
};

/// Cut-offs of a predictor's candidate walk, the same for every family.
struct PredictLimits {
  std::uint32_t max_depth = 8;      ///< deepest candidate considered
  double min_probability = 0.002;   ///< prune candidates below this p_b
  std::size_t max_candidates = 48;  ///< cap on emitted candidates
};

/// The rank of candidates: probability descending, then block ascending,
/// a strict total order over a set with distinct blocks.  A function
/// object, so sorts inline it.
struct RankOrder {
  bool operator()(const PredictedBlock& a,
                  const PredictedBlock& b) const noexcept {
    return a.probability > b.probability ||
           (a.probability == b.probability && a.block < b.block);
  }
};

}  // namespace pfp::core::costben
