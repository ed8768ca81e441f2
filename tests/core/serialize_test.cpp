#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/tree/enumerator.hpp"
#include "core/tree/prefetch_tree.hpp"
#include "util/prng.hpp"

namespace pfp::core::tree {
namespace {

PrefetchTree trained_tree(std::uint64_t seed, int accesses) {
  PrefetchTree tree;
  util::Xoshiro256 rng(seed);
  // Mixture of a repeated pattern and noise, to get real structure.
  std::vector<BlockId> pattern;
  for (int i = 0; i < 25; ++i) {
    pattern.push_back(1000 + rng.below(500));
  }
  std::size_t pos = 0;
  for (int i = 0; i < accesses; ++i) {
    if (rng.bernoulli(0.1)) {
      tree.access(rng.below(100'000));
    } else {
      tree.access(pattern[pos]);
      pos = (pos + 1) % pattern.size();
    }
  }
  return tree;
}

std::vector<std::uint8_t> image_of(const PrefetchTree& tree) {
  std::vector<std::uint8_t> out;
  tree.serialize(out);
  return out;
}

PrefetchTree load(std::span<const std::uint8_t> image,
                  TreeConfig config = TreeConfig{}) {
  util::ByteReader in(image);
  return PrefetchTree::deserialize(in, config);
}

void expect_equal_trees(const PrefetchTree& a, const PrefetchTree& b) {
  ASSERT_EQ(a.node_count(), b.node_count());
  // Walk both in lockstep.
  std::vector<std::pair<NodeId, NodeId>> stack = {{a.root(), b.root()}};
  while (!stack.empty()) {
    const auto [na, nb] = stack.back();
    stack.pop_back();
    ASSERT_EQ(a.node(na).block, b.node(nb).block);
    ASSERT_EQ(a.node(na).weight, b.node(nb).weight);
    const auto ca = a.children(na);
    const auto cb = b.children(nb);
    ASSERT_EQ(ca.size(), cb.size());
    for (std::size_t i = 0; i < ca.size(); ++i) {
      stack.emplace_back(ca[i], cb[i]);
    }
  }
}

TEST(TreeSerialize, RoundTripPreservesStructure) {
  const PrefetchTree original = trained_tree(1, 20'000);
  const std::vector<std::uint8_t> buf = image_of(original);
  const PrefetchTree loaded = load(buf);
  expect_equal_trees(original, loaded);
}

TEST(TreeSerialize, RoundTripPreservesPredictions) {
  const PrefetchTree original = trained_tree(2, 20'000);
  const std::vector<std::uint8_t> buf = image_of(original);
  const PrefetchTree loaded = load(buf);
  costben::PredictLimits limits;
  const auto a = enumerate_candidates(original, original.root(), limits);
  const auto b = enumerate_candidates(loaded, loaded.root(), limits);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].block, b[i].block);
    EXPECT_DOUBLE_EQ(a[i].probability, b[i].probability);
    EXPECT_EQ(a[i].depth, b[i].depth);
  }
}

TEST(TreeSerialize, LoadedTreeKeepsLearning) {
  PrefetchTree original;
  for (const BlockId b : {1u, 2u, 1u, 2u, 1u, 2u}) {
    original.access(b);
  }
  const std::vector<std::uint8_t> buf = image_of(original);
  PrefetchTree loaded = load(buf);
  // New accesses keep updating weights from the loaded state.
  const auto before = loaded.node(loaded.find_child(loaded.root(), 1)).weight;
  loaded.access(1);
  const auto after = loaded.node(loaded.find_child(loaded.root(), 1)).weight;
  EXPECT_EQ(after, before + 1);
}

TEST(TreeSerialize, BoundedConfigAppliesToFutureGrowth) {
  const PrefetchTree original = trained_tree(3, 5'000);
  const std::vector<std::uint8_t> buf = image_of(original);
  TreeConfig config;
  config.max_nodes = original.node_count();  // loaded exactly at budget
  PrefetchTree loaded = load(buf, config);
  EXPECT_EQ(loaded.node_count(), original.node_count());
  util::Xoshiro256 rng(4);
  for (int i = 0; i < 2'000; ++i) {
    loaded.access(rng.below(1'000'000));
  }
  EXPECT_LE(loaded.node_count(), config.max_nodes + 1);
}

TEST(TreeSerialize, EmptyTreeRoundTrips) {
  PrefetchTree empty;
  const std::vector<std::uint8_t> buf = image_of(empty);
  const PrefetchTree loaded = load(buf);
  EXPECT_EQ(loaded.node_count(), 1u);
  EXPECT_EQ(loaded.node(loaded.root()).weight, 0u);
}

TEST(TreeSerialize, RejectsBadMagic) {
  const std::string garbage = "garbage data here";
  const std::vector<std::uint8_t> buf(garbage.begin(), garbage.end());
  EXPECT_THROW(load(buf), std::runtime_error);
}

TEST(TreeSerialize, RejectsTruncatedStream) {
  const PrefetchTree original = trained_tree(5, 2'000);
  const std::vector<std::uint8_t> buf = image_of(original);
  const std::span<const std::uint8_t> cut(buf.data(), buf.size() / 2);
  EXPECT_THROW(load(cut), std::runtime_error);
}

TEST(TreeSerialize, RejectsCorruptedWeights) {
  PrefetchTree original;
  for (const BlockId b : {1u, 1u, 2u}) {
    original.access(b);
  }
  const std::vector<std::uint8_t> buf = image_of(original);
  std::vector<std::uint8_t> bad = buf;
  // Blow up a weight byte in the body (after the 14-byte header the root
  // record starts; weights of children follow block ids).
  bad[bad.size() - 5] = 0xff;
  EXPECT_THROW(load(bad), std::runtime_error);
}

}  // namespace
}  // namespace pfp::core::tree
