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

#include "core/tree/prefetch_tree.hpp"

namespace pfp::core::tree {

struct Candidate {
  BlockId block = 0;
  double probability = 0.0;         ///< p_b: path probability from current
  double parent_probability = 1.0;  ///< p_x: path probability of parent
  std::uint32_t depth = 1;          ///< d_b: edges from current node
  NodeId node = kNoNode;            ///< tree node (introspection)
};

struct EnumeratorLimits {
  std::uint32_t max_depth = 8;      ///< deepest descendant considered
  double min_probability = 0.002;   ///< prune paths below this p_b
  std::size_t max_candidates = 48;  ///< cap on emitted candidates
};

/// Reusable best-first enumerator.  One instance per policy; not
/// thread-safe (each simulation owns its policies, so no sharing occurs).
class CandidateEnumerator {
 public:
  /// Descendants of `from`, most probable first.  Duplicate blocks (same
  /// block reachable along several paths) keep only their most probable
  /// occurrence.  The root's weight-0 state (empty tree) yields nothing.
  /// The returned span aliases internal storage and is invalidated by the
  /// next enumerate() call.
  std::span<const Candidate> enumerate(const PrefetchTree& tree, NodeId from,
                                       const EnumeratorLimits& limits);

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
  std::vector<Candidate> out_;  ///< reused output buffer
};

/// One-shot wrapper around CandidateEnumerator with identical results;
/// prefer a reused enumerator on hot paths.
std::vector<Candidate> enumerate_candidates(const PrefetchTree& tree,
                                            NodeId from,
                                            const EnumeratorLimits& limits);

}  // namespace pfp::core::tree
