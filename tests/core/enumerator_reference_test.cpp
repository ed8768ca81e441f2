// Differential test: CandidateEnumerator::enumerate against a naive
// recursive walk of the tree, after every access of the paper workloads
// and of a leaf-LRU churn tree.
//
// The reference visits every descendant of the enumeration origin
// through the tree's public view (children(), edge_probability()),
// multiplying path products in the same order as the best-first walk:
// parent path probability times edge probability.  It keeps each block's
// most probable occurrence, sorts by probability and cuts at
// max_candidates.  It shares no code with the heap, dedup table or
// prefetching of the production walk.
//
// Where several blocks tie on probability across the max_candidates cut,
// heap order decides which of them the production walk emits; any of
// them is accepted there.  So is any occurrence of a block that reaches
// its best probability along several paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iostream>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/tree/enumerator.hpp"
#include "core/tree/prefetch_tree.hpp"
#include "trace/workloads.hpp"
#include "util/prng.hpp"

namespace pfp::core::tree {
namespace {

using costben::PredictedBlock;

/// One path that reaches a block at its best probability.
struct Occurrence {
  NodeId node = kNoNode;
  double parent_probability = 1.0;
  std::uint32_t depth = 0;
};

struct ReferenceEntry {
  BlockId block = 0;
  double probability = 0.0;
  std::vector<Occurrence> best;  ///< every occurrence at `probability`
};

void reference_walk(const PrefetchTree& tree, NodeId node, double path,
                    std::uint32_t depth, const costben::PredictLimits& limits,
                    std::unordered_map<BlockId, ReferenceEntry>& by_block) {
  if (depth >= limits.max_depth) {
    return;
  }
  for (const NodeId child : tree.children(node)) {
    const double p = path * tree.edge_probability(node, child);
    // Edge probabilities are at most 1, so no descendant of a pruned
    // child can reach the cutoff either.
    if (p < limits.min_probability) {
      continue;
    }
    ReferenceEntry& entry = by_block[tree.block(child)];
    const Occurrence occurrence{child, path, depth + 1};
    if (entry.best.empty() || p > entry.probability) {
      entry.block = tree.block(child);
      entry.probability = p;
      entry.best.assign(1, occurrence);
    } else if (p == entry.probability) {
      entry.best.push_back(occurrence);
    }
    reference_walk(tree, child, p, depth + 1, limits, by_block);
  }
}

/// Every block reachable from `from` within the limits, ranked by
/// (probability desc, block asc); not yet cut at max_candidates.
std::vector<ReferenceEntry> reference_enumerate(
    const PrefetchTree& tree, NodeId from, const costben::PredictLimits& limits) {
  std::unordered_map<BlockId, ReferenceEntry> by_block;
  if (tree.weight(from) != 0) {
    reference_walk(tree, from, 1.0, 0, limits, by_block);
  }
  std::vector<ReferenceEntry> ranked;
  ranked.reserve(by_block.size());
  for (auto& [block, entry] : by_block) {
    ranked.push_back(std::move(entry));
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const ReferenceEntry& a, const ReferenceEntry& b) {
              if (a.probability != b.probability) {
                return a.probability > b.probability;
              }
              return a.block < b.block;
            });
  return ranked;
}

/// Counts how often a probability tie straddled the max_candidates cut,
/// so a run can show the tie rule was exercised.
struct DiffStats {
  std::size_t calls = 0;
  std::size_t straddled_cuts = 0;
};

::testing::AssertionResult matches_reference(
    const PrefetchTree& tree, NodeId from,
    const costben::PredictLimits& limits,
    std::span<const PredictedBlock> got, DiffStats& stats) {
  ++stats.calls;
  const std::vector<ReferenceEntry> want =
      reference_enumerate(tree, from, limits);
  const std::size_t n = std::min(want.size(), limits.max_candidates);
  if (got.size() != n) {
    return ::testing::AssertionFailure()
           << got.size() << " candidates, reference has " << n;
  }
  for (std::size_t i = 1; i < got.size(); ++i) {
    if (got[i].probability > got[i - 1].probability) {
      return ::testing::AssertionFailure()
             << "candidate " << i << " outranks its predecessor";
    }
  }
  // A tie group cut by max_candidates: its emitted members may be any of
  // the reference's members at that probability.
  const bool straddles = n > 0 && n < want.size() &&
                         want[n].probability == want[n - 1].probability;
  stats.straddled_cuts += straddles ? 1 : 0;
  std::unordered_set<BlockId> at_cut;
  if (straddles) {
    for (const ReferenceEntry& e : want) {
      if (e.probability == want[n - 1].probability) {
        at_cut.insert(e.block);
      }
    }
  }

  std::vector<PredictedBlock> ranked(got.begin(), got.end());
  std::sort(ranked.begin(), ranked.end(),
            [](const PredictedBlock& a, const PredictedBlock& b) {
              if (a.probability != b.probability) {
                return a.probability > b.probability;
              }
              return a.block < b.block;
            });
  std::unordered_map<BlockId, const ReferenceEntry*> entry_of;
  for (const ReferenceEntry& e : want) {
    entry_of[e.block] = &e;
  }
  std::unordered_set<BlockId> emitted;
  for (std::size_t i = 0; i < n; ++i) {
    const PredictedBlock& c = ranked[i];
    if (!emitted.insert(c.block).second) {
      return ::testing::AssertionFailure() << "block " << c.block
                                           << " emitted twice";
    }
    if (c.probability != want[i].probability) {
      return ::testing::AssertionFailure()
             << "rank " << i << ": probability " << c.probability
             << ", reference " << want[i].probability;
    }
    const bool tied_at_cut =
        straddles && c.probability == want[n - 1].probability;
    if (tied_at_cut ? at_cut.count(c.block) == 0 : c.block != want[i].block) {
      return ::testing::AssertionFailure()
             << "rank " << i << ": block " << c.block << ", reference "
             << want[i].block;
    }
    const ReferenceEntry& entry = *entry_of.at(c.block);
    const bool known_path = std::any_of(
        entry.best.begin(), entry.best.end(), [&](const Occurrence& o) {
          return o.depth == c.depth &&
                 o.parent_probability == c.parent_probability;
        });
    if (!known_path) {
      return ::testing::AssertionFailure()
             << "block " << c.block << " reported at depth " << c.depth
             << " with parent probability " << c.parent_probability
             << ", not a most probable path to it";
    }
  }
  return ::testing::AssertionSuccess();
}

/// The controller's limits, and a tight set whose cutoff 1/8 is exact in
/// binary (edge ratios such as 1/8 and 2/16 land on it) and whose small
/// cap often cuts through a tie group.
std::vector<costben::PredictLimits> limit_sets() {
  costben::PredictLimits tight;
  tight.max_depth = 3;
  tight.min_probability = 0.125;
  tight.max_candidates = 4;
  return {costben::PredictLimits{}, tight};
}

/// Feeds `blocks` through `tree`, diffing one reused enumerator against
/// the reference from the parse position after every access under every
/// limit set; stops at the first mismatch.
::testing::AssertionResult replay_matches(PrefetchTree& tree,
                                          const std::vector<BlockId>& blocks,
                                          DiffStats& stats) {
  CandidateEnumerator enumerator;
  const std::vector<costben::PredictLimits> limits = limit_sets();
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    tree.access(blocks[i]);
    for (std::size_t l = 0; l < limits.size(); ++l) {
      const std::span<const PredictedBlock> got =
          enumerator.enumerate(tree, tree.current(), limits[l]);
      ::testing::AssertionResult r =
          matches_reference(tree, tree.current(), limits[l], got, stats);
      if (!r) {
        return r << " (after access " << i << ", limit set " << l << ")";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

void report(const std::string& where, const DiffStats& stats) {
  std::cout << "[ reference ] " << where << ": " << stats.calls
            << " enumerations, " << stats.straddled_cuts
            << " with a tie across the cap\n";
}

TEST(EnumeratorReferenceDiff, MatchesReferenceAtEveryAccessOfEachWorkload) {
  DiffStats total;
  for (const trace::Workload w : trace::all_workloads()) {
    const trace::Trace t = trace::make_workload(w, 20'000, 1);
    std::vector<BlockId> blocks;
    blocks.reserve(t.size());
    for (const trace::TraceRecord& r : t) {
      blocks.push_back(r.block);
    }
    PrefetchTree tree;
    DiffStats stats;
    EXPECT_TRUE(replay_matches(tree, blocks, stats))
        << trace::workload_name(w);
    report(trace::workload_name(w), stats);
    total.straddled_cuts += stats.straddled_cuts;
  }
  EXPECT_GT(total.straddled_cuts, 0u) << "the tie rule was never exercised";
}

TEST(EnumeratorReferenceDiff, MatchesReferenceOnALeafLruChurnTree) {
  // A 16-node bound evicts a leaf on almost every new substring and
  // recycles its pool slot straight away.
  TreeConfig config;
  config.max_nodes = 16;
  PrefetchTree tree(config);
  util::Xoshiro256 rng(17);
  std::vector<BlockId> blocks(20'000);
  for (BlockId& b : blocks) {
    b = rng.below(24);
  }
  DiffStats stats;
  EXPECT_TRUE(replay_matches(tree, blocks, stats));
  report("churn", stats);
  EXPECT_EQ(tree.node_count(), config.max_nodes)
      << "churn test never saturated the pool; eviction was not exercised";
}

}  // namespace
}  // namespace pfp::core::tree
