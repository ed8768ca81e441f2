#include "core/tree/enumerator.hpp"

#include <gtest/gtest.h>

namespace pfp::core::tree {
namespace {

// Build the Figure 1 tree: (a)(ac)(ab)(aba)(abb)(b).
PrefetchTree figure1_tree() {
  PrefetchTree tree;
  for (const BlockId b : {1u, 1u, 3u, 1u, 2u, 1u, 2u, 1u, 1u, 2u, 2u, 2u}) {
    tree.access(b);
  }
  return tree;
}

costben::PredictLimits loose() {
  costben::PredictLimits limits;
  limits.max_depth = 8;
  limits.min_probability = 0.0001;
  limits.max_candidates = 100;
  return limits;
}

TEST(Enumerator, EmptyTreeYieldsNothing) {
  PrefetchTree tree;
  const auto c = enumerate_candidates(tree, tree.root(), loose());
  EXPECT_TRUE(c.empty());
}

TEST(Enumerator, Figure1RootCandidates) {
  // Parse position after the Figure-1 string is the root (last access
  // created node b).  From the root: a (5/6), b (1/6), and descendants.
  PrefetchTree tree = figure1_tree();
  ASSERT_EQ(tree.current(), tree.root());
  const auto c = enumerate_candidates(tree, tree.root(), loose());
  ASSERT_FALSE(c.empty());
  // Most probable candidate is a with p = 5/6 at depth 1.
  EXPECT_EQ(c[0].block, 1u);
  EXPECT_DOUBLE_EQ(c[0].probability, 5.0 / 6.0);
  EXPECT_EQ(c[0].depth, 1u);
  EXPECT_DOUBLE_EQ(c[0].parent_probability, 1.0);
}

TEST(Enumerator, PathProbabilitiesMultiply) {
  PrefetchTree tree = figure1_tree();
  const auto c = enumerate_candidates(tree, tree.root(), loose());
  // Figure 1: P(reach c two deep) = 5/6 * 1/5 = 1/6.  Block 2 (b) appears
  // at depth 1 with p = 1/6 AND under a with p = 5/6 * 3/5 = 1/2 — dedup
  // keeps the more probable depth-2 occurrence.
  bool found_b = false;
  for (const auto& cand : c) {
    if (cand.block == 2) {
      found_b = true;
      EXPECT_DOUBLE_EQ(cand.probability, 0.5);
      EXPECT_EQ(cand.depth, 2u);
      EXPECT_DOUBLE_EQ(cand.parent_probability, 5.0 / 6.0);
    }
  }
  EXPECT_TRUE(found_b);
}

TEST(Enumerator, CandidatesSortedByProbability) {
  PrefetchTree tree = figure1_tree();
  const auto c = enumerate_candidates(tree, tree.root(), loose());
  for (std::size_t i = 1; i < c.size(); ++i) {
    EXPECT_GE(c[i - 1].probability, c[i].probability);
  }
}

TEST(Enumerator, BlocksAreUnique) {
  PrefetchTree tree = figure1_tree();
  const auto c = enumerate_candidates(tree, tree.root(), loose());
  for (std::size_t i = 0; i < c.size(); ++i) {
    for (std::size_t j = i + 1; j < c.size(); ++j) {
      EXPECT_NE(c[i].block, c[j].block);
    }
  }
}

TEST(Enumerator, MaxDepthPrunes) {
  PrefetchTree tree = figure1_tree();
  costben::PredictLimits limits = loose();
  limits.max_depth = 1;
  const auto c = enumerate_candidates(tree, tree.root(), limits);
  for (const auto& cand : c) {
    EXPECT_EQ(cand.depth, 1u);
  }
}

TEST(Enumerator, MinProbabilityPrunes) {
  PrefetchTree tree = figure1_tree();
  costben::PredictLimits limits = loose();
  limits.min_probability = 0.5;
  const auto c = enumerate_candidates(tree, tree.root(), limits);
  for (const auto& cand : c) {
    EXPECT_GE(cand.probability, 0.5);
  }
  // a (5/6) qualifies; its child b at 1/2 qualifies.
  EXPECT_GE(c.size(), 2u);
}

TEST(Enumerator, MaxCandidatesCaps) {
  PrefetchTree tree;
  // Create 50 distinct children of root.
  for (BlockId b = 1; b <= 50; ++b) {
    tree.access(b);
  }
  costben::PredictLimits limits = loose();
  limits.max_candidates = 10;
  const auto c = enumerate_candidates(tree, tree.root(), limits);
  EXPECT_EQ(c.size(), 10u);
}

TEST(Enumerator, FromInteriorNode) {
  PrefetchTree tree = figure1_tree();
  const NodeId a = tree.find_child(tree.root(), 1);
  const auto c = enumerate_candidates(tree, a, loose());
  // From a: children b (3/5), c (1/5), then b's children a, b at 1/3 each
  // of b's path... top candidate must be b at 3/5.
  ASSERT_FALSE(c.empty());
  EXPECT_EQ(c[0].block, 2u);
  EXPECT_DOUBLE_EQ(c[0].probability, 0.6);
}

TEST(Enumerator, ReusedEnumeratorMatchesFreshCalls) {
  // One CandidateEnumerator driven across many positions and limit sets
  // must return exactly what a fresh enumerate_candidates call returns —
  // no state may leak between calls through the reused buffers.
  PrefetchTree tree;
  CandidateEnumerator reused;
  const BlockId stream[] = {1, 2, 3, 1, 2, 4, 1, 2, 3, 5, 1, 2,
                            3, 1, 4, 2, 1, 2, 3, 4, 5, 1, 2, 3};
  costben::PredictLimits tight;
  tight.max_depth = 2;
  tight.min_probability = 0.05;
  tight.max_candidates = 4;
  std::size_t step = 0;
  for (const BlockId b : stream) {
    tree.access(b);
    const costben::PredictLimits& limits = (step % 2 == 0) ? loose() : tight;
    const auto fresh = enumerate_candidates(tree, tree.current(), limits);
    const auto again = reused.enumerate(tree, tree.current(), limits);
    ASSERT_EQ(again.size(), fresh.size()) << "step " << step;
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      EXPECT_EQ(again[i].block, fresh[i].block) << "step " << step;
      EXPECT_EQ(again[i].depth, fresh[i].depth) << "step " << step;
      EXPECT_DOUBLE_EQ(again[i].probability, fresh[i].probability)
          << "step " << step;
      EXPECT_DOUBLE_EQ(again[i].parent_probability,
                       fresh[i].parent_probability)
          << "step " << step;
    }
    ++step;
  }
}

TEST(Enumerator, ReuseAfterEmptyTreeResult) {
  // An empty-tree call must not leave stale candidates behind for the
  // next call.
  PrefetchTree empty;
  PrefetchTree tree = figure1_tree();
  CandidateEnumerator reused;
  EXPECT_FALSE(reused.enumerate(tree, tree.root(), loose()).empty());
  EXPECT_TRUE(reused.enumerate(empty, empty.root(), loose()).empty());
  const auto fresh = enumerate_candidates(tree, tree.root(), loose());
  const auto again = reused.enumerate(tree, tree.root(), loose());
  ASSERT_EQ(again.size(), fresh.size());
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_EQ(again[i].block, fresh[i].block);
    EXPECT_DOUBLE_EQ(again[i].probability, fresh[i].probability);
  }
}

}  // namespace
}  // namespace pfp::core::tree
