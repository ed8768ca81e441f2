#include "core/tree/prefetch_tree.hpp"

#include <vector>

#include "util/assert.hpp"
#include "util/audit.hpp"

namespace pfp::core::tree {

PrefetchTree::PrefetchTree(TreeConfig config) : config_(config) {
  root_ = pool_.create(kNoNode, /*block=*/0);
  pool_.hot(root_).weight = 0;  // root counts substrings, none seen yet
  current_ = root_;
  leaf_lru_.resize(16);
}

void PrefetchTree::touch(NodeId id) {
  if (leaf_lru_.contains(id)) {
    leaf_lru_.touch(id);
  }
}

void PrefetchTree::on_becomes_interior(NodeId id) {
  if (leaf_lru_.contains(id)) {
    leaf_lru_.erase(id);
  }
}

void PrefetchTree::evict_one_leaf() {
  // Evict the least recently touched leaf that is not the parse position.
  NodeId victim = leaf_lru_.back();
  if (victim == util::LruList::npos) {
    return;
  }
  if (victim == current_) {
    if (leaf_lru_.size() == 1) {
      return;  // nothing else evictable; exceed the bound by one node
    }
    leaf_lru_.touch(victim);  // shelter the parse position
    victim = leaf_lru_.back();
  }
  leaf_lru_.erase(victim);
  const NodeId parent = pool_.parent(victim);
  pool_.destroy(victim);
  // The parent may have just become a leaf; it is now evictable too.  It
  // enters at the MRU end (LruList's front), so every leaf already on the
  // list is evicted before it unless the parse touches them again.
  if (parent != kNoNode && parent != root_ && pool_.child_count(parent) == 0) {
    if (!leaf_lru_.contains(parent)) {
      leaf_lru_.push_front(parent);
    }
  }
}

AccessInfo PrefetchTree::access(BlockId block) {
  AccessInfo info;
  const NodeId lvc = pool_.last_visited_child(current_);
  info.had_lvc = lvc != kNoNode;

  // Section 9.6: accesses overwhelmingly follow the last-visited child
  // (Table 3), and child labels are unique per parent, so checking the
  // LVC's block first resolves the common case with one hot-plane read
  // instead of an edge-map hash probe.  The fallback probe returns the
  // same child the fast path would, by the uniqueness of edge labels.
  const NodeId child = (lvc != kNoNode && pool_.block(lvc) == block)
                           ? lvc
                           : pool_.find_child(current_, block);
  info.predictable = child != kNoNode;
  info.followed_lvc = info.had_lvc && child == lvc;

  // Every substring start passes through the root; its weight counts
  // substrings so that root-child probabilities are per-substring
  // frequencies (Figure 1).
  if (current_ == root_) {
    ++pool_.hot(root_).weight;  // root has no parent: no order fix-up needed
  }

  if (child != kNoNode) {
    pool_.set_last_visited_child(current_, child);
    pool_.increment_weight(child);
    touch(child);
    current_ = child;
    return info;
  }

  info.new_node = true;
  const bool parent_was_leaf =
      current_ != root_ && pool_.child_count(current_) == 0;
  const NodeId added = pool_.create(current_, block);
  PFP_DASSERT(added != kNoNode);  // find_child just missed this edge
  if (leaf_lru_.capacity() <= added) {
    leaf_lru_.resize(pool_.id_bound() * 2 + 16);
  }
  if (parent_was_leaf) {
    on_becomes_interior(current_);
  }
  leaf_lru_.push_front(added);
  pool_.set_last_visited_child(current_, added);
  current_ = root_;

  if (config_.max_nodes != 0) {
    while (pool_.live_nodes() > config_.max_nodes) {
      const std::size_t before = pool_.live_nodes();
      evict_one_leaf();
      if (pool_.live_nodes() == before) {
        break;  // nothing evictable
      }
    }
  }
  PFP_AUDIT_SWEEP(*this);
  return info;
}

void PrefetchTree::audit() const {
#if PFP_AUDIT_ENABLED
  // Storage-layout invariants (plane agreement, child-run arena
  // ownership, free-list hygiene) first: the structural walk below
  // assumes the runs it streams over are well-formed.
  pool_.audit();
  // Preorder walk from the root; every structural invariant is checked at
  // the node that owns it.  The walk is bounded by the live-node count so
  // a corrupted child link cannot loop forever under a throwing handler.
  std::vector<NodeId> stack{root_};
  std::size_t visited = 0;
  bool current_reachable = false;
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    ++visited;
    if (visited > pool_.live_nodes()) {
      PFP_AUDIT("PrefetchTree", false,
                "reachable nodes exceed live count (child-link cycle?)");
      return;
    }
    if (id == current_) {
      current_reachable = true;
    }
    const bool is_leaf = pool_.child_count(id) == 0 && id != root_;
    PFP_AUDIT("PrefetchTree", leaf_lru_.contains(id) == is_leaf,
              "leaf-LRU membership disagrees with leaf status");
    const NodeId lvc = pool_.last_visited_child(id);
    std::uint64_t child_weight_sum = 0;
    std::uint64_t prev_weight = ~0ULL;
    bool lvc_found = lvc == kNoNode;
    const auto children = pool_.children(id);
    for (std::size_t i = 0; i < children.size(); ++i) {
      const NodeId c = children[i];
      PFP_AUDIT("PrefetchTree", pool_.parent(c) == id,
                "child's parent link does not point back (symmetry)");
      PFP_AUDIT("PrefetchTree",
                pool_.pos_in_parent(c) == static_cast<std::uint32_t>(i),
                "child's pos_in_parent disagrees with the child list");
      PFP_AUDIT("PrefetchTree", pool_.find_child(id, pool_.block(c)) == c,
                "edge map disagrees with the child list");
      PFP_AUDIT("PrefetchTree", pool_.weight(c) <= prev_weight,
                "children not in descending-weight order");
      prev_weight = pool_.weight(c);
      child_weight_sum += pool_.weight(c);
      if (c == lvc) {
        lvc_found = true;
      }
      stack.push_back(c);
    }
    // Every arrival at a child follows a distinct arrival at this node
    // (Section 2's parse), so child visit counts can never outnumber the
    // node's own.
    PFP_AUDIT("PrefetchTree", child_weight_sum <= pool_.weight(id),
              "children's weights sum past the node's visit count");
    PFP_AUDIT("PrefetchTree", lvc_found,
              "last-visited child is not among the node's children");
  }
  PFP_AUDIT("PrefetchTree", visited == pool_.live_nodes(),
            "live nodes unreachable from the root");
  PFP_AUDIT("PrefetchTree", current_reachable,
            "parse position (current node) unreachable from the root");
#endif
}

}  // namespace pfp::core::tree
