// Prefetch-candidate enumeration.
//
// From the parse position the controller may prefetch along multiple
// paths simultaneously (Section 3), so candidates are all descendants of
// the current node, each carrying its path probability p_b (product of
// edge probabilities), its distance d_b (edge count), and its parent's
// path probability p_x — exactly the inputs of Equation 1's benefit and
// Equation 14's overhead.
//
// Enumeration is best-first on path probability with depth / probability
// / count pruning: probabilities only shrink along a path, so a
// probability-ordered frontier yields the globally most probable
// descendants first and the cut-offs are exact, not heuristic.
//
// The cost-benefit policies pass limits whose depth is the period's
// payable depth (costben::BenefitTable::payable_depth): past it Eq. 1
// prices every descendant <= 0, so they walk no deeper than the
// controller could issue.  At the paper's constants that depth is 1 and
// a call scans one child run, whose blocks are distinct, so the dedup
// table admits everything.  The max_candidates cap still keeps the 48
// most probable children of a node with more above min_probability
// (2-6% of calls on the paper workloads), but children's weights sum to
// at most their parent's, so every child it cuts has p <= 1/49, below
// the ~0.037 at which Eq. 14's overhead outweighs a depth-1 benefit: it
// never cuts a block the controller would issue.
//
// Candidates are costben::PredictedBlock, the controller's vocabulary,
// so the controller prices the enumerator's output span in place.
//
// Enumeration runs once per access period from the parse position, so
// CandidateEnumerator owns its frontier heap, output buffer and dedup
// scratch and reuses them across calls — the hot path allocates nothing
// after the first few periods.  Every call walks afresh: each access
// moves the parse and reweights the node it enumerated from, so a list
// kept from one period never describes the next (docs/perf.md,
// "Why enumeration keeps no cache").  enumerate_candidates() is the
// one-shot wrapper for tests, examples and introspection.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/costben/candidate.hpp"
#include "core/tree/prefetch_tree.hpp"

namespace pfp::core::tree {

/// Reusable best-first enumerator.  One instance per policy; not
/// thread-safe (each simulation owns its policies, so no sharing occurs).
class CandidateEnumerator {
 public:
  /// Descendants of `from`, most probable first: p_b is the path
  /// probability from `from`, p_x its parent's, d_b the edge count.
  /// Duplicate blocks (same block reachable along several paths) keep
  /// only their most probable occurrence.  The root's weight-0 state
  /// (empty tree) yields nothing.  The returned span aliases internal
  /// storage and is invalidated by the next enumerate() call.
  std::span<const costben::PredictedBlock> enumerate(
      const PrefetchTree& tree, NodeId from,
      const costben::PredictLimits& limits);

 private:
  struct FrontierItem {
    double probability;
    double parent_probability;
    NodeId node;
    std::uint32_t depth;
    bool operator<(const FrontierItem& other) const {
      return probability < other.probability;  // max-heap on probability
    }
  };

  /// Generation-stamped open-addressing dedup slot; a stale generation
  /// marks the slot empty, so clearing between walks is O(1).
  struct SeenSlot {
    std::uint32_t generation = 0;
    BlockId block = 0;
  };

  void seen_reset(std::size_t max_candidates);
  bool seen_insert(BlockId block);  ///< false if already present

  std::vector<FrontierItem> frontier_;  ///< binary max-heap (std::push_heap)
  std::vector<SeenSlot> seen_;          ///< power-of-two dedup table
  std::uint32_t seen_generation_ = 0;
  std::vector<costben::PredictedBlock> out_;  ///< reused output buffer
};

/// One-shot wrapper around CandidateEnumerator with identical results;
/// prefer a reused enumerator on hot paths.
std::vector<costben::PredictedBlock> enumerate_candidates(
    const PrefetchTree& tree, NodeId from,
    const costben::PredictLimits& limits);

}  // namespace pfp::core::tree
