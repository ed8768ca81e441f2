// Node storage for the LZ prefetch tree.
//
// Nodes live in struct-of-arrays slabs indexed by 32-bit ids with a free
// list, so the bounded-tree experiments (Figure 13) can create and evict
// hundreds of thousands of nodes without allocator churn, and so sizeof
// bookkeeping matches the paper's "each node corresponds to 40 bytes"
// accounting.
//
// The record is split by access temperature:
//   - the HOT plane (`HotNode`: block, weight, parent, child-run head) is
//     everything a parse step or a best-first enumeration touches — 32
//     bytes, two nodes per cache line;
//   - the COLD plane (`ColdNode`: last_visited_child, pos_in_parent)
//     holds the Section 9.6 machinery and the child-run back index, read
//     far less often and never inside the enumeration inner loop.
//
// Child lists are not per-node containers: every node's children occupy
// one contiguous run inside a shared child-index arena (power-of-two run
// growth, freed runs recycled per size class), so descending-weight
// enumeration streams over one flat array instead of chasing per-node
// heap blocks, and the next level's hot-plane entries can be software-
// prefetched while the current run is scanned.  Edge lookup
// (parent, block) -> child is a single probe of the edge table: one
// open-addressing array of 16-byte {block, parent, child} slots, so a
// lookup, the duplicate-edge check in create() and the erase in
// destroy() each read one array and nothing else.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "trace/record.hpp"

namespace pfp::core::tree {

using trace::BlockId;

using NodeId = std::uint32_t;
inline constexpr NodeId kNoNode = std::numeric_limits<NodeId>::max();

/// Hot traversal plane: the fields every parse step and enumeration step
/// reads.  32 bytes — two nodes per cache line (the old array-of-structs
/// record was 72 bytes and spanned two lines by itself).
struct HotNode {
  BlockId block = 0;         ///< disk block this node represents
  std::uint64_t weight = 0;  ///< times this node has been visited
  NodeId parent = kNoNode;
  /// Child run inside the shared arena: children occupy
  /// [child_begin, child_begin + child_count), sorted by weight
  /// descending.  Candidate enumeration and the parametric policies rely
  /// on this order to stop scanning at their probability cutoff instead
  /// of visiting every child (the root of a low-locality trace can have
  /// tens of thousands).  child_capacity is 0 (no run) or a power of two.
  std::uint32_t child_begin = 0;
  std::uint32_t child_count = 0;
  std::uint32_t child_capacity = 0;
};
static_assert(sizeof(HotNode) == 32, "hot plane packs two nodes per line");

/// Cold plane: bookkeeping no enumeration inner loop ever touches — the
/// parse's last-visited-child shortcut (Section 9.6) and the node's slot
/// in its parent's child run, which lets a weight increment or a leaf
/// destroy fix the run in place.  8 bytes.
struct ColdNode {
  NodeId last_visited_child = kNoNode;  ///< Section 9.6 machinery
  std::uint32_t pos_in_parent = 0;      ///< index in parent's child run
};
static_assert(sizeof(ColdNode) == 8);

/// Read-only by-value view of one node's identity and weight, for
/// introspection sites (tests, examples, policies off the inner loop).
struct NodeView {
  BlockId block = 0;
  std::uint64_t weight = 0;
  NodeId parent = kNoNode;
};

class NodePool {
 public:
  /// Allocates a node for `block` under `parent` (kNoNode for the root)
  /// with initial weight 1, and registers the edge.  Returns kNoNode,
  /// allocating nothing, if `parent` already has a child labelled
  /// `block` — the edge-table insert is the duplicate probe.  May move
  /// the parent's child run: spans from children() are invalidated.
  NodeId create(NodeId parent, BlockId block);

  /// Pre-sizes both planes, the edge table and the child arena for at
  /// least `nodes` live nodes, so a bulk rebuild (deserialization) never
  /// regrows them.  A run holds at most twice its child count, so
  /// 2 * nodes arena entries cover every run the rebuild reserves.
  void reserve(std::size_t nodes);

  /// Gives a node that has no child run yet one sized for `count`
  /// children (the next power of two), so a rebuild that knows each
  /// fanout up front never regrows a run.
  void reserve_children(NodeId id, std::uint32_t count);

  /// Child of `parent` labelled `block`, or kNoNode.
  [[nodiscard]] NodeId find_child(NodeId parent, BlockId block) const;

  /// Increments a node's weight, restoring the parent's descending-weight
  /// child order with one binary search + swap (weights only ever grow by
  /// one, so the displaced entry has exactly the old weight).
  void increment_weight(NodeId id);

  /// Destroys a node.  The node must be a leaf (no children).  Unlinks it
  /// from its parent's child run and the edge table; a run whose last
  /// child leaves is recycled into the arena free lists.
  void destroy(NodeId id);

  // --- per-node accessors ---------------------------------------------
  [[nodiscard]] BlockId block(NodeId id) const { return hot_[id].block; }
  [[nodiscard]] std::uint64_t weight(NodeId id) const {
    return hot_[id].weight;
  }
  [[nodiscard]] NodeId parent(NodeId id) const { return hot_[id].parent; }
  [[nodiscard]] std::span<const NodeId> children(NodeId id) const {
    const HotNode& n = hot_[id];
    return {arena_.data() + n.child_begin, n.child_count};
  }
  [[nodiscard]] std::uint32_t child_count(NodeId id) const {
    return hot_[id].child_count;
  }
  [[nodiscard]] NodeId last_visited_child(NodeId id) const {
    return cold_[id].last_visited_child;
  }
  void set_last_visited_child(NodeId id, NodeId child) {
    cold_[id].last_visited_child = child;
  }
  [[nodiscard]] std::uint32_t pos_in_parent(NodeId id) const {
    return cold_[id].pos_in_parent;
  }
  [[nodiscard]] NodeView view(NodeId id) const {
    const HotNode& n = hot_[id];
    return NodeView{n.block, n.weight, n.parent};
  }

  /// Low-level mutable plane access.  Escape hatch for deserialization
  /// (weight restore) and the audit tests' seeded corruptions; regular
  /// callers go through the mutation API above, which keeps the order
  /// and edge-table invariants.
  [[nodiscard]] HotNode& hot(NodeId id) { return hot_[id]; }
  [[nodiscard]] const HotNode& hot(NodeId id) const { return hot_[id]; }
  [[nodiscard]] ColdNode& cold(NodeId id) { return cold_[id]; }
  [[nodiscard]] const ColdNode& cold(NodeId id) const { return cold_[id]; }

  [[nodiscard]] std::size_t live_nodes() const noexcept { return live_; }
  /// Upper bound on node ids ever allocated (for sizing side tables).
  [[nodiscard]] std::size_t id_bound() const noexcept { return hot_.size(); }

  /// Raw plane/arena access for tight read-only walks (valid ids <
  /// id_bound()).  Pointers are invalidated by create()/destroy().
  [[nodiscard]] const HotNode* hot_data() const noexcept {
    return hot_.data();
  }
  [[nodiscard]] const NodeId* child_arena() const noexcept {
    return arena_.data();
  }

  /// Paper's storage accounting: 40 bytes per node (Section 9.3).
  /// Figure 13 and the `tree_bytes` metric keep quoting this so the
  /// reproduction's memory axis stays comparable with the paper; see
  /// actual_memory_bytes() for what the process really spends.
  static constexpr std::size_t kPaperBytesPerNode = 40;
  [[nodiscard]] std::size_t approx_memory_bytes() const noexcept {
    return live_ * kPaperBytesPerNode;
  }

  /// Bytes the current layout actually reserves: both planes, the child
  /// arena, the free lists and the edge table (capacities, not live
  /// counts, because that is what the allocator charged us for).
  [[nodiscard]] std::size_t actual_memory_bytes() const noexcept;

  /// SIM_AUDIT sweep of the storage layout itself: plane sizes agree,
  /// live child runs sit inside the arena without overlapping each other
  /// or a recycled run, free-list size classes match run capacities,
  /// every run entry points back at its owner, the edge table holds one
  /// slot per live non-root node and every slot's key matches its
  /// child's hot record.  Structural *tree* invariants (order, symmetry,
  /// reachability) live in PrefetchTree::audit(), which calls this.
  /// No-op unless compiled with SIM_AUDIT >= 1.
  void audit() const;

 private:
  /// One edge-table slot.  16 bytes, no padding.  Empty when child ==
  /// kNoNode: no real id equals kNoNode, and a root (no parent) is never
  /// inserted.
  struct EdgeSlot {
    BlockId block = 0;
    NodeId parent = kNoNode;
    NodeId child = kNoNode;
  };
  static_assert(sizeof(EdgeSlot) == 16, "edge slots carry no padding");

  /// (parent, block) -> child: one power-of-two array of EdgeSlots with
  /// linear probing, at most 3/4 full, doubling growth and backward-shift
  /// erase (Knuth 6.4 algorithm R), so probe chains never degrade under
  /// the leaf-LRU churn of bounded trees.
  class EdgeTable {
   public:
    EdgeTable();
    [[nodiscard]] NodeId find(NodeId parent, BlockId block) const;
    /// Registers the edge; returns false, changing nothing, if
    /// (parent, block) is already present.
    bool insert(NodeId parent, BlockId block, NodeId child);
    void erase(NodeId parent, BlockId block);
    /// Grows the array so `edges` entries fit without a rehash.
    void reserve(std::size_t edges);
    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    [[nodiscard]] std::span<const EdgeSlot> slots() const noexcept {
      return slots_;
    }

   private:
    [[nodiscard]] std::size_t home(NodeId parent,
                                   BlockId block) const noexcept;
    /// Slot holding (parent, block), or the empty slot ending its chain.
    [[nodiscard]] std::size_t probe(NodeId parent, BlockId block) const;
    void rehash(std::size_t capacity);

    std::vector<EdgeSlot> slots_;
    std::size_t mask_ = 0;
    std::size_t size_ = 0;
  };

  /// Smallest non-empty run: covers the paper's typical 1–4 child fanout
  /// with at most one regrow.
  static constexpr std::uint32_t kMinRunCapacity = 2;
  /// Runs are power-of-two sized; 2^31 children cannot occur (ids are
  /// 32-bit and the arena would overflow first).
  static constexpr std::uint32_t kRunClasses = 32;

  static std::uint32_t run_class(std::uint32_t capacity) noexcept;

  /// Offset of a run with capacity 1 << cls: recycled if one is free,
  /// else appended to the arena (which may reallocate it).
  std::uint32_t alloc_run(std::uint32_t cls);
  void free_run(std::uint32_t begin, std::uint32_t capacity);
  /// Doubles `id`'s child run (or creates its first), copying the live
  /// entries and recycling the old run.
  void grow_run(NodeId id);

  std::vector<HotNode> hot_;
  std::vector<ColdNode> cold_;
  /// Shared child-index arena; every node's children are one contiguous
  /// slice of it.
  std::vector<NodeId> arena_;
  /// Recycled run offsets, bucketed by log2(capacity).
  std::array<std::vector<std::uint32_t>, kRunClasses> free_runs_;
  std::vector<NodeId> free_;
  EdgeTable edges_;
  std::size_t live_ = 0;
};

}  // namespace pfp::core::tree
