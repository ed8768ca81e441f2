// Randomized churn property test for the SoA NodePool: drive
// create/destroy/increment_weight against a naive reference-model pool
// (AoS records, per-node std::vector child lists, std::map edge index —
// the "obviously correct" implementation the arena layout replaced) and
// assert the two stay observationally identical: same find_child answers,
// same child enumeration order, same weights and positions.  Every 1'000
// operations the full live structure is compared and, in SIM_AUDIT
// builds, the pool's arena-layout and edge-table audit must come back
// clean.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/tree/node_pool.hpp"
#include "util/audit.hpp"
#include "util/prng.hpp"

namespace pfp::core::tree {
namespace {

// Mirror of NodePool's observable semantics with the simplest possible
// storage.  increment_weight reproduces the documented invariant-restoring
// move exactly (binary search for the first lighter sibling + one swap),
// so child *order* — not just the multiset of children — must match.
class ReferencePool {
 public:
  NodeId create(NodeId parent, BlockId block) {
    NodeId id;
    if (!free_.empty()) {
      id = free_.back();
      free_.pop_back();
      nodes_[id] = RefNode{};
    } else {
      id = static_cast<NodeId>(nodes_.size());
      nodes_.emplace_back();
    }
    RefNode& node = nodes_[id];
    node.block = block;
    node.weight = 1;
    node.parent = parent;
    if (parent != kNoNode) {
      node.pos_in_parent =
          static_cast<std::uint32_t>(nodes_[parent].children.size());
      nodes_[parent].children.push_back(id);
      edges_[{parent, block}] = id;
    }
    ++live_;
    return id;
  }

  [[nodiscard]] NodeId find_child(NodeId parent, BlockId block) const {
    const auto it = edges_.find({parent, block});
    return it == edges_.end() ? kNoNode : it->second;
  }

  void increment_weight(NodeId id) {
    RefNode& node = nodes_[id];
    ++node.weight;
    if (node.parent == kNoNode) {
      return;
    }
    auto& siblings = nodes_[node.parent].children;
    const std::uint32_t pos = node.pos_in_parent;
    if (pos == 0 || nodes_[siblings[pos - 1]].weight >= node.weight) {
      return;
    }
    std::uint32_t lo = 0;
    std::uint32_t hi = pos;
    while (lo < hi) {
      const std::uint32_t mid = lo + (hi - lo) / 2;
      if (nodes_[siblings[mid]].weight >= node.weight) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    std::swap(siblings[lo], siblings[pos]);
    nodes_[siblings[pos]].pos_in_parent = pos;
    node.pos_in_parent = lo;
  }

  void destroy(NodeId id) {
    RefNode& node = nodes_[id];
    const NodeId parent = node.parent;
    if (parent != kNoNode) {
      auto& siblings = nodes_[parent].children;
      siblings.erase(siblings.begin() + node.pos_in_parent);
      for (std::size_t i = node.pos_in_parent; i < siblings.size(); ++i) {
        nodes_[siblings[i]].pos_in_parent = static_cast<std::uint32_t>(i);
      }
      edges_.erase({parent, node.block});
    }
    nodes_[id] = RefNode{};
    free_.push_back(id);
    --live_;
  }

  [[nodiscard]] std::size_t live_nodes() const { return live_; }
  [[nodiscard]] BlockId block(NodeId id) const { return nodes_[id].block; }
  [[nodiscard]] std::uint64_t weight(NodeId id) const {
    return nodes_[id].weight;
  }
  [[nodiscard]] NodeId parent(NodeId id) const { return nodes_[id].parent; }
  [[nodiscard]] const std::vector<NodeId>& children(NodeId id) const {
    return nodes_[id].children;
  }

 private:
  struct RefNode {
    BlockId block = 0;
    std::uint64_t weight = 0;
    NodeId parent = kNoNode;
    std::uint32_t pos_in_parent = 0;
    std::vector<NodeId> children;
  };

  std::vector<RefNode> nodes_;
  std::vector<NodeId> free_;
  std::map<std::pair<NodeId, BlockId>, NodeId> edges_;
  std::size_t live_ = 0;
};

void throwing_handler(const char* component, const char* what, const char*,
                      int) {
  throw std::runtime_error(std::string(component) + ": " + what);
}

// Compare the full live structure: weights, parents, blocks and exact
// child order for every live node, plus find_child over every live edge.
void expect_identical(const NodePool& pool, const ReferencePool& ref,
                      const std::vector<NodeId>& live) {
  ASSERT_EQ(pool.live_nodes(), ref.live_nodes());
  for (const NodeId id : live) {
    ASSERT_EQ(pool.block(id), ref.block(id)) << "node " << id;
    ASSERT_EQ(pool.weight(id), ref.weight(id)) << "node " << id;
    ASSERT_EQ(pool.parent(id), ref.parent(id)) << "node " << id;
    const auto got = pool.children(id);
    const auto& want = ref.children(id);
    ASSERT_EQ(got.size(), want.size()) << "node " << id;
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << "node " << id << " child " << i;
      ASSERT_EQ(pool.pos_in_parent(got[i]), i) << "node " << id;
    }
    ASSERT_EQ(pool.find_child(pool.parent(id) == kNoNode ? id : pool.parent(id),
                              pool.block(id)),
              ref.find_child(ref.parent(id) == kNoNode ? id : ref.parent(id),
                             ref.block(id)));
  }
}

// One stretch of the random walk: `ops` operations over labels
// 1..block_space, create_pct percent of them creates, destroy_pct percent
// leaf destroys and the rest weight increments.
struct ChurnPhase {
  int ops;
  std::uint64_t create_pct;
  std::uint64_t destroy_pct;
  std::uint64_t block_space;
};

// Drives both pools through `phases` and compares them throughout.
// Returns the most live nodes the pools held at once.
std::size_t run_churn(const std::vector<ChurnPhase>& phases,
                      std::uint64_t seed) {
  NodePool pool;
  ReferencePool ref;
  const NodeId root = pool.create(kNoNode, 0);
  EXPECT_EQ(ref.create(kNoNode, 0), root);

  std::vector<NodeId> live{root};  // ids live in BOTH pools (identical)
  std::size_t peak_live = live.size();
  util::Xoshiro256 rng(seed);
  int op = 0;
  for (const ChurnPhase& phase : phases) {
    for (int k = 0; k < phase.ops; ++k, ++op) {
      const std::uint64_t dice = rng.below(100);
      if (dice < phase.create_pct) {
        // Create a child of a random live node under a random label; if
        // the edge exists this is the parse's "walk the edge" case —
        // increment.
        const NodeId parent = live[rng.below(live.size())];
        const BlockId block = 1 + rng.below(phase.block_space);
        const NodeId existing = pool.find_child(parent, block);
        EXPECT_EQ(existing, ref.find_child(parent, block));
        if (existing != kNoNode) {
          pool.increment_weight(existing);
          ref.increment_weight(existing);
        } else {
          const NodeId a = pool.create(parent, block);
          const NodeId b = ref.create(parent, block);
          EXPECT_EQ(a, b) << "free-list recycling order diverged";
          if (a != b) {
            return peak_live;
          }
          live.push_back(a);
          peak_live = std::max(peak_live, live.size());
        }
      } else if (dice < 100 - phase.destroy_pct) {
        // Weight churn drives the sibling-run reorder path.
        const NodeId id = live[rng.below(live.size())];
        pool.increment_weight(id);
        ref.increment_weight(id);
      } else {
        // Destroy a random live *leaf* (the pool's contract), freeing its
        // slot and possibly its parent's whole child run.
        const std::size_t start = rng.below(live.size());
        for (std::size_t j = 0; j < live.size(); ++j) {
          const std::size_t at = (start + j) % live.size();
          const NodeId victim = live[at];
          if (victim == root || pool.child_count(victim) != 0) {
            continue;
          }
          pool.destroy(victim);
          ref.destroy(victim);
          live[at] = live.back();
          live.pop_back();
          break;
        }
      }

      // Cheap per-op probe: one random edge lookup must agree.
      const NodeId probe = live[rng.below(live.size())];
      const BlockId label = 1 + rng.below(phase.block_space);
      EXPECT_EQ(pool.find_child(probe, label), ref.find_child(probe, label));

      if ((op + 1) % 1'000 == 0) {
        expect_identical(pool, ref, live);
        if (PFP_AUDIT_ENABLED) {
          // Arena-layout and edge-table invariants (run ownership,
          // free-list hygiene, freed-slot reset, one slot per live edge)
          // must hold at every checkpoint.
          EXPECT_NO_THROW(pool.audit());
        }
      }
      if (::testing::Test::HasFailure()) {
        return peak_live;
      }
    }
  }
  expect_identical(pool, ref, live);
  if (PFP_AUDIT_ENABLED) {
    EXPECT_NO_THROW(pool.audit());
  }
  return peak_live;
}

TEST(NodePoolChurn, RandomizedOpsMatchReferenceModel) {
  util::AuditHandler previous = nullptr;
  if (PFP_AUDIT_ENABLED) {
    previous = util::set_audit_handler(&throwing_handler);
  }

  // Small label space: forces fanout, duplicate edges and run reorders.
  run_churn({{30'000, 45, 15, 48}}, 0xC0FFEE);

  // Wide label space: grow to ~6000 live edges, which takes the edge
  // table through three doublings (1024 -> 8192 slots at 3/4 load), churn
  // there near full load, then destroy almost all of them.  A probe chain
  // crosses the table's end only where a cluster straddles it, so the
  // churn phase is what makes backward-shift erase wrap (13-28 times
  // across the seeds tried) and shift entries back across the end.
  const std::size_t peak = run_churn({{6'800, 90, 5, 1u << 20},
                                      {60'000, 45, 45, 1u << 20},
                                      {8'000, 10, 85, 1u << 20}},
                                     0xFEED);
  const std::size_t peak_edges = peak - 1;  // the root has no edge
  EXPECT_GT(peak_edges, 4096u * 3u / 4u) << "edge table never reached 8192";

  if (PFP_AUDIT_ENABLED) {
    util::set_audit_handler(previous);
  }
}

TEST(NodePoolChurn, ActualMemoryTracksLayoutNotPaperAccounting) {
  NodePool pool;
  const NodeId root = pool.create(kNoNode, 0);
  for (BlockId b = 1; b <= 64; ++b) {
    pool.create(root, b);
  }
  // Paper accounting is exactly 40 B/node; the layout figure counts what
  // the planes + arena + edge map actually reserve and is necessarily
  // at least the live hot+cold footprint.
  EXPECT_EQ(pool.approx_memory_bytes(), 65u * NodePool::kPaperBytesPerNode);
  EXPECT_GE(pool.actual_memory_bytes(),
            pool.live_nodes() * (sizeof(HotNode) + sizeof(ColdNode)));
  const std::size_t before = pool.actual_memory_bytes();
  for (BlockId b = 65; b <= 768; ++b) {
    pool.create(root, b);
  }
  EXPECT_GT(pool.actual_memory_bytes(), before);

  // 768 edges fill the fresh 1024-slot edge table to 3/4; the 769th
  // doubles it.  Both planes (1024 entries since node 513) and the root's
  // child run (1024 since child 513) stay put on that create, so the
  // whole increase is 1024 new edge slots of 16 bytes each.
  const std::size_t full = pool.actual_memory_bytes();
  pool.create(root, 769);
  EXPECT_EQ(pool.actual_memory_bytes() - full, 1024u * 16u);
}

}  // namespace
}  // namespace pfp::core::tree
