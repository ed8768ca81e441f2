// The LZ prefetch tree (Section 2).
//
// A directed tree built online from the block reference stream using the
// Vitter–Krishnan / Curewitz parse: the stream is split into substrings,
// each extending a previously seen substring by one new block.  Parsing
// walks from the root along matching edges, incrementing the weight of
// every node it arrives at (and the root's weight at every substring
// start, so root children carry first-block-of-substring statistics —
// Figure 1's a:5/6, b:1/6 example).  Hitting a missing edge adds a node
// and restarts at the root.
//
// Probability of child c given node n is weight(c) / weight(n); path
// probabilities multiply along edges, and the *distance* d_b of a
// descendant is its edge count from the current node (Figure 1's d_c=2).
//
// The tree optionally bounds its node count (Section 9.3): nodes are kept
// on an LRU list by last parse touch and the least recently used *leaf*
// is evicted — removing an interior node would orphan a whole subtree of
// still-useful context.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/tree/node_pool.hpp"
#include "util/assert.hpp"
#include "util/binary_io.hpp"
#include "util/lru_list.hpp"

namespace pfp::core::tree {

struct TreeConfig {
  /// Maximum live nodes including the root; 0 = unbounded.  The paper's
  /// sweet spot for the CAD trace is 32K nodes (~1.25 MB at 40 B/node).
  std::size_t max_nodes = 0;
};

/// What the parse observed for one access; feeds Tables 2/3 and the
/// Figure 14/16 instrumentation.
struct AccessInfo {
  /// The accessed block was a child of the pre-access current node
  /// (the paper's "predictable" — Section 9.4).
  bool predictable = false;
  /// The pre-access current node had a last-visited child.
  bool had_lvc = false;
  /// The access went to exactly that last-visited child (Table 3).
  bool followed_lvc = false;
  /// Parsing added a new node (substring boundary; parse reset to root).
  bool new_node = false;
};

class PrefetchTree {
 public:
  explicit PrefetchTree(TreeConfig config = TreeConfig{});

  /// Feeds one reference through the LZ parse.
  AccessInfo access(BlockId block);

  /// Node the parse is currently positioned at (prediction context).
  [[nodiscard]] NodeId current() const noexcept { return current_; }
  [[nodiscard]] NodeId root() const noexcept { return root_; }

  /// By-value snapshot of one node; introspection convenience — hot
  /// paths use the single-field accessors below.
  [[nodiscard]] NodeView node(NodeId id) const { return pool_.view(id); }
  [[nodiscard]] BlockId block(NodeId id) const { return pool_.block(id); }
  [[nodiscard]] std::uint64_t weight(NodeId id) const {
    return pool_.weight(id);
  }
  /// Children of `id`, weight-descending, as one contiguous slice of the
  /// pool's child arena.  Invalidated by the next access() (node creation
  /// can move or reallocate runs).
  [[nodiscard]] std::span<const NodeId> children(NodeId id) const {
    return pool_.children(id);
  }

  /// weight(child) / weight(parent) — the edge probability.  Inline: this
  /// sits in the innermost loop of candidate enumeration.
  [[nodiscard]] double edge_probability(NodeId parent, NodeId child) const {
    const std::uint64_t wp = pool_.weight(parent);
    const std::uint64_t wc = pool_.weight(child);
    PFP_DASSERT(wp > 0);
    PFP_DASSERT(wc <= wp);
    return static_cast<double>(wc) / static_cast<double>(wp);
  }

  /// Child of `id` labelled `block`, or kNoNode.
  [[nodiscard]] NodeId find_child(NodeId id, BlockId block) const {
    return pool_.find_child(id, block);
  }

  /// Last-visited child of `id`, or kNoNode (Section 9.6).
  [[nodiscard]] NodeId last_visited_child(NodeId id) const {
    return pool_.last_visited_child(id);
  }

  /// Read-only pool access for tight walks over the node slab.
  [[nodiscard]] const NodePool& pool() const noexcept { return pool_; }

  [[nodiscard]] std::size_t node_count() const noexcept {
    return pool_.live_nodes();
  }
  [[nodiscard]] std::size_t approx_memory_bytes() const noexcept {
    return pool_.approx_memory_bytes();
  }
  /// Bytes the SoA layout actually reserves (planes + child arena + edge
  /// map); approx_memory_bytes() stays on the paper's 40 B/node axis.
  [[nodiscard]] std::size_t actual_memory_bytes() const noexcept {
    return pool_.actual_memory_bytes();
  }
  [[nodiscard]] const TreeConfig& config() const noexcept { return config_; }

  /// SIM_AUDIT sweep: parent/child symmetry, descending-weight child
  /// order, edge-map agreement, child weight sums, leaf-LRU membership,
  /// and reachability of every live node and of the parse position
  /// (docs/static-analysis.md).  No-op unless compiled with
  /// SIM_AUDIT >= 1.
  void audit() const;

  /// Appends the tree's structure (topology, blocks, weights) to `out` as
  /// a compact "PFTR" image, so a trained predictor can warm-start a later
  /// run.  Parse position and last-visited-child pointers are transient
  /// and not persisted.
  void serialize(std::vector<std::uint8_t>& out) const;

  /// Reads one serialize() image from `in` (bytes after it are the
  /// caller's).  The node bound of `config` governs future growth only
  /// (loading never evicts).  Throws std::runtime_error on malformed
  /// input, before sizing anything from a count the bytes left in `in`
  /// cannot hold.
  static PrefetchTree deserialize(util::ByteReader& in,
                                  TreeConfig config = TreeConfig{});

 private:
  friend struct AuditTestAccess;  // corruption hooks for audit tests

  /// Deserialization helper: attach a child with a known weight and
  /// stored child count (which sizes its child run and decides leaf-LRU
  /// membership).  Children must be restored in descending-weight order
  /// (the serialized order).  Returns kNoNode on a duplicate edge.
  NodeId restore_child(NodeId parent, BlockId block, std::uint64_t weight,
                       std::uint32_t child_count);
  void touch(NodeId id);
  void on_becomes_interior(NodeId id);
  void evict_one_leaf();

  TreeConfig config_;
  NodePool pool_;
  NodeId root_;
  NodeId current_;
  /// LRU over *leaf* nodes only; interior nodes are not evictable.
  util::LruList leaf_lru_;
};

}  // namespace pfp::core::tree
