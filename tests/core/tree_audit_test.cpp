// SIM_AUDIT detection tests for the LZ prefetch tree: seed one precise
// structural corruption per test and prove the audit sweep fires.  Skips
// when built without SIM_AUDIT (the sanitizer CI legs enable it).
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "core/tree/prefetch_tree.hpp"
#include "util/audit.hpp"
#include "util/lru_list.hpp"
#include "util/prng.hpp"

namespace pfp::core::tree {

// Friend of PrefetchTree: exposes the node pool, parse position and leaf
// LRU so tests can corrupt them.  Lives in the test binary only.
struct AuditTestAccess {
  static NodePool& pool(PrefetchTree& tree) { return tree.pool_; }
  static NodeId& current(PrefetchTree& tree) { return tree.current_; }
  static util::LruList& leaf_lru(PrefetchTree& tree) {
    return tree.leaf_lru_;
  }
};

namespace {

void throwing_handler(const char* component, const char* what, const char*,
                      int) {
  throw std::runtime_error(std::string(component) + ": " + what);
}

class TreeAuditDetection : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!PFP_AUDIT_ENABLED) {
      GTEST_SKIP() << "built without SIM_AUDIT; sweeps are no-ops";
    }
    previous_ = util::set_audit_handler(&throwing_handler);
  }
  void TearDown() override {
    if (PFP_AUDIT_ENABLED) {
      util::set_audit_handler(previous_);
    }
  }

 private:
  util::AuditHandler previous_ = nullptr;
};

// Parse a, b, a, c: root(w3) -> {a(w2) -> {c(w1)}, b(w1)}, so the tree
// has an interior non-root node, a two-child node, and two leaves.
PrefetchTree small_tree() {
  PrefetchTree tree;
  tree.access(1);  // a
  tree.access(2);  // b
  tree.access(1);  // a (parse descends to node a)
  tree.access(3);  // c (new node under a; parse resets)
  return tree;
}

TEST_F(TreeAuditDetection, CleanParseAuditsPass) {
  PrefetchTree tree;
  util::Xoshiro256 rng(11);
  for (int i = 0; i < 2'000; ++i) {
    tree.access(rng.below(64));
    if (i % 100 == 0) {
      EXPECT_NO_THROW(tree.audit());
    }
  }
  EXPECT_NO_THROW(tree.audit());
}

TEST_F(TreeAuditDetection, CleanBoundedTreeAuditsPass) {
  TreeConfig config;
  config.max_nodes = 32;
  PrefetchTree tree(config);
  util::Xoshiro256 rng(13);
  for (int i = 0; i < 2'000; ++i) {
    tree.access(rng.below(256));
    if (i % 100 == 0) {
      EXPECT_NO_THROW(tree.audit());
    }
  }
  EXPECT_NO_THROW(tree.audit());
}

TEST_F(TreeAuditDetection, SerializeRoundTripAuditsPass) {
  PrefetchTree tree = small_tree();
  std::vector<std::uint8_t> image;
  tree.serialize(image);
  util::ByteReader in(image);
  PrefetchTree restored = PrefetchTree::deserialize(in);
  EXPECT_NO_THROW(restored.audit());
}

TEST_F(TreeAuditDetection, BrokenParentLinkFires) {
  PrefetchTree tree = small_tree();
  const NodeId a = tree.find_child(tree.root(), 1);
  const NodeId c = tree.find_child(a, 3);
  ASSERT_NE(c, kNoNode);
  AuditTestAccess::pool(tree).hot(c).parent = tree.root();
  EXPECT_THROW(tree.audit(), std::runtime_error);
}

TEST_F(TreeAuditDetection, InflatedChildWeightFires) {
  PrefetchTree tree = small_tree();
  const NodeId b = tree.find_child(tree.root(), 2);
  ASSERT_NE(b, kNoNode);
  // b now outweighs its visit budget: children sum past the root's count
  // and the descending-weight order breaks.
  AuditTestAccess::pool(tree).hot(b).weight = 100;
  EXPECT_THROW(tree.audit(), std::runtime_error);
}

TEST_F(TreeAuditDetection, EdgeMapMismatchFires) {
  PrefetchTree tree = small_tree();
  const NodeId b = tree.find_child(tree.root(), 2);
  ASSERT_NE(b, kNoNode);
  // Relabel the node without touching the edge map: (root, 99) misses.
  AuditTestAccess::pool(tree).hot(b).block = 99;
  EXPECT_THROW(tree.audit(), std::runtime_error);
}

TEST_F(TreeAuditDetection, DanglingLastVisitedChildFires) {
  PrefetchTree tree = small_tree();
  const NodeId a = tree.find_child(tree.root(), 1);
  const NodeId c = tree.find_child(a, 3);
  ASSERT_NE(c, kNoNode);
  // c is a's child, not the root's.
  AuditTestAccess::pool(tree).cold(tree.root()).last_visited_child = c;
  EXPECT_THROW(tree.audit(), std::runtime_error);
}

TEST_F(TreeAuditDetection, LeafLruDesyncFires) {
  PrefetchTree tree = small_tree();
  const NodeId b = tree.find_child(tree.root(), 2);
  ASSERT_NE(b, kNoNode);
  // b is a live leaf; dropping it from the leaf LRU makes it unevictable
  // (the bounded-tree experiments would leak nodes).
  AuditTestAccess::leaf_lru(tree).erase(b);
  EXPECT_THROW(tree.audit(), std::runtime_error);
}

TEST_F(TreeAuditDetection, UnreachableParsePositionFires) {
  PrefetchTree tree = small_tree();
  const NodeId a = tree.find_child(tree.root(), 1);
  const NodeId c = tree.find_child(a, 3);
  ASSERT_NE(c, kNoNode);
  // Destroy leaf c (keeping the leaf LRU consistent: c leaves it, its
  // parent a becomes a leaf and enters it), then park the parse on the
  // dead node.  Only the reachability audit can catch this.
  AuditTestAccess::leaf_lru(tree).erase(c);
  AuditTestAccess::pool(tree).destroy(c);
  AuditTestAccess::leaf_lru(tree).push_front(a);
  AuditTestAccess::current(tree) = c;
  EXPECT_THROW(tree.audit(), std::runtime_error);
}

TEST_F(TreeAuditDetection, FreedSlotWithStaleLinkFires) {
  PrefetchTree tree = small_tree();
  const NodeId a = tree.find_child(tree.root(), 1);
  const NodeId c = tree.find_child(a, 3);
  ASSERT_NE(c, kNoNode);
  // Evict leaf c the way the leaf-LRU bound does, which leaves a clean
  // tree, then give the freed slot a stale last-visited-child link: only
  // the node pool's freed-slot hygiene check can see it.
  AuditTestAccess::leaf_lru(tree).erase(c);
  AuditTestAccess::pool(tree).destroy(c);
  AuditTestAccess::leaf_lru(tree).push_front(a);
  ASSERT_NO_THROW(tree.audit());
  AuditTestAccess::pool(tree).cold(c).last_visited_child = a;
  EXPECT_THROW(tree.audit(), std::runtime_error);
}

}  // namespace
}  // namespace pfp::core::tree
