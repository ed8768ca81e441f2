#include "core/tree/node_pool.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "util/assert.hpp"
#include "util/audit.hpp"

namespace pfp::core::tree {

namespace {
/// Slots of a fresh edge table; small enough that a tree that stays
/// tiny costs 16 KB, large enough that a parse skips the first doublings.
constexpr std::size_t kInitialEdgeSlots = 1024;
}  // namespace

NodePool::EdgeTable::EdgeTable()
    : slots_(kInitialEdgeSlots), mask_(kInitialEdgeSlots - 1) {}

std::size_t NodePool::EdgeTable::home(NodeId parent,
                                      BlockId block) const noexcept {
  // splitmix-style combine; parent ids are dense, blocks sparse.
  std::uint64_t x = block ^ (static_cast<std::uint64_t>(parent) << 32);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return static_cast<std::size_t>(x ^ (x >> 31)) & mask_;
}

std::size_t NodePool::EdgeTable::probe(NodeId parent, BlockId block) const {
  // The table is never full (3/4 load), so every probe ends.
  std::size_t i = home(parent, block);
  while (slots_[i].child != kNoNode &&
         (slots_[i].parent != parent || slots_[i].block != block)) {
    i = (i + 1) & mask_;
  }
  return i;
}

NodeId NodePool::EdgeTable::find(NodeId parent, BlockId block) const {
  return slots_[probe(parent, block)].child;
}

bool NodePool::EdgeTable::insert(NodeId parent, BlockId block,
                                 NodeId child) {
  PFP_DASSERT(child != kNoNode);
  std::size_t i = probe(parent, block);
  if (slots_[i].child != kNoNode) {
    return false;
  }
  if ((size_ + 1) * 4 > slots_.size() * 3) {
    rehash(slots_.size() * 2);
    i = probe(parent, block);
  }
  slots_[i] = EdgeSlot{block, parent, child};
  ++size_;
  return true;
}

void NodePool::EdgeTable::erase(NodeId parent, BlockId block) {
  std::size_t hole = probe(parent, block);
  if (slots_[hole].child == kNoNode) {
    return;
  }
  // Backward shift: pull every displaced entry of the probe chain one
  // hole closer to its home slot, leaving no tombstone behind.
  std::size_t j = hole;
  while (true) {
    if (++j == slots_.size()) {
      j = 0;  // the probe chain runs across the table's end
    }
    const EdgeSlot& slot = slots_[j];
    if (slot.child == kNoNode) {
      break;
    }
    // j's entry may fill the hole only if its home lies cyclically
    // at-or-before the hole (otherwise the move would break its own
    // probe chain).
    const std::size_t h = home(slot.parent, slot.block);
    if (((j - h) & mask_) >= ((j - hole) & mask_)) {
      slots_[hole] = slot;
      hole = j;
    }
  }
  slots_[hole] = EdgeSlot{};
  --size_;
}

void NodePool::EdgeTable::reserve(std::size_t edges) {
  std::size_t capacity = slots_.size();
  while (edges * 4 > capacity * 3) {
    capacity *= 2;
  }
  if (capacity > slots_.size()) {
    rehash(capacity);
  }
}

void NodePool::EdgeTable::rehash(std::size_t capacity) {
  PFP_DASSERT((capacity & (capacity - 1)) == 0);
  const std::vector<EdgeSlot> old =
      std::exchange(slots_, std::vector<EdgeSlot>(capacity));
  mask_ = capacity - 1;
  for (const EdgeSlot& slot : old) {
    if (slot.child != kNoNode) {
      slots_[probe(slot.parent, slot.block)] = slot;  // keys are unique
    }
  }
}

std::uint32_t NodePool::run_class(std::uint32_t capacity) noexcept {
  PFP_DASSERT(capacity != 0 && (capacity & (capacity - 1)) == 0);
  std::uint32_t cls = 0;
  while ((1u << cls) < capacity) {
    ++cls;
  }
  return cls;
}

std::uint32_t NodePool::alloc_run(std::uint32_t cls) {
  auto& recycled = free_runs_[cls];
  if (!recycled.empty()) {
    const std::uint32_t begin = recycled.back();
    recycled.pop_back();
    return begin;
  }
  const std::size_t begin = arena_.size();
  PFP_REQUIRE(begin + (1u << cls) <=
              static_cast<std::size_t>(std::numeric_limits<std::uint32_t>::max()));
  arena_.resize(begin + (std::size_t{1} << cls), kNoNode);
  return static_cast<std::uint32_t>(begin);
}

void NodePool::free_run(std::uint32_t begin, std::uint32_t capacity) {
  if (capacity == 0) {
    return;
  }
  free_runs_[run_class(capacity)].push_back(begin);
}

void NodePool::grow_run(NodeId id) {
  // Copy out the run head first: alloc_run may resize the arena and any
  // HotNode reference would be into the pre-copy child data anyway.
  const std::uint32_t old_begin = hot_[id].child_begin;
  const std::uint32_t old_capacity = hot_[id].child_capacity;
  const std::uint32_t count = hot_[id].child_count;
  const std::uint32_t new_capacity =
      old_capacity == 0 ? kMinRunCapacity : old_capacity * 2;
  const std::uint32_t new_begin = alloc_run(run_class(new_capacity));
  if (count > 0) {
    std::copy(arena_.begin() + old_begin, arena_.begin() + old_begin + count,
              arena_.begin() + new_begin);
  }
  free_run(old_begin, old_capacity);
  HotNode& node = hot_[id];
  node.child_begin = new_begin;
  node.child_capacity = new_capacity;
}

void NodePool::reserve(std::size_t nodes) {
  // The planes get the power-of-two capacity one-at-a-time growth would
  // have reached, so the first node created after a rebuild does not copy
  // them (reserved pages stay unresident until they are used).
  hot_.reserve(std::bit_ceil(nodes));
  cold_.reserve(std::bit_ceil(nodes));
  edges_.reserve(nodes);
  arena_.reserve(2 * nodes);
}

void NodePool::reserve_children(NodeId id, std::uint32_t count) {
  PFP_REQUIRE(hot_[id].child_capacity == 0);
  if (count == 0) {
    return;
  }
  const std::uint32_t capacity =
      std::bit_ceil(std::max(count, kMinRunCapacity));
  hot_[id].child_begin = alloc_run(run_class(capacity));
  hot_[id].child_capacity = capacity;
}

NodeId NodePool::create(NodeId parent, BlockId block) {
  const NodeId id =
      free_.empty() ? static_cast<NodeId>(hot_.size()) : free_.back();
  PFP_REQUIRE(id != kNoNode);
  if (parent != kNoNode && !edges_.insert(parent, block, id)) {
    return kNoNode;
  }
  if (!free_.empty()) {
    free_.pop_back();
  } else {
    hot_.emplace_back();
    cold_.emplace_back();
  }
  hot_[id] = HotNode{};
  cold_[id] = ColdNode{};
  HotNode& node = hot_[id];
  node.block = block;
  node.weight = 1;
  node.parent = parent;
  if (parent != kNoNode) {
    // Weight 1 is the minimum, so appending keeps the child run sorted.
    cold_[id].pos_in_parent = hot_[parent].child_count;
    if (hot_[parent].child_count == hot_[parent].child_capacity) {
      grow_run(parent);
    }
    HotNode& p = hot_[parent];
    arena_[p.child_begin + p.child_count] = id;
    ++p.child_count;
  }
  ++live_;
  return id;
}

void NodePool::increment_weight(NodeId id) {
  HotNode& node = hot_[id];
  [[maybe_unused]] const std::uint64_t old_weight = node.weight++;
  if (node.parent == kNoNode) {
    return;
  }
  NodeId* siblings = arena_.data() + hot_[node.parent].child_begin;
  const std::uint32_t pos = cold_[id].pos_in_parent;
  PFP_DASSERT(siblings[pos] == id);
  if (pos == 0 || hot_[siblings[pos - 1]].weight >= node.weight) {
    return;  // already in place
  }
  // All siblings in [target, pos) carry exactly old_weight (descending
  // order + weights change by single increments), so one swap restores
  // the invariant.  Binary search for the first sibling lighter than the
  // new weight, i.e. weight == old_weight.
  std::uint32_t lo = 0;
  std::uint32_t hi = pos;
  while (lo < hi) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    if (hot_[siblings[mid]].weight >= node.weight) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  PFP_DASSERT(hot_[siblings[lo]].weight == old_weight);
  std::swap(siblings[lo], siblings[pos]);
  cold_[siblings[pos]].pos_in_parent = pos;
  cold_[id].pos_in_parent = lo;
}

NodeId NodePool::find_child(NodeId parent, BlockId block) const {
  return edges_.find(parent, block);
}

void NodePool::destroy(NodeId id) {
  PFP_REQUIRE(hot_[id].child_count == 0);
  const NodeId parent = hot_[id].parent;
  if (parent != kNoNode) {
    HotNode& p = hot_[parent];
    NodeId* siblings = arena_.data() + p.child_begin;
    const std::uint32_t pos = cold_[id].pos_in_parent;
    PFP_DASSERT(siblings[pos] == id);
    for (std::uint32_t i = pos; i + 1 < p.child_count; ++i) {
      siblings[i] = siblings[i + 1];
      cold_[siblings[i]].pos_in_parent = i;
    }
    --p.child_count;
    if (p.child_count == 0) {
      // The run would otherwise linger while leaf-LRU churn (Figure 13's
      // bounded trees) creates and destroys subtrees; recycle it.
      free_run(p.child_begin, p.child_capacity);
      p.child_begin = 0;
      p.child_capacity = 0;
    }
    if (cold_[parent].last_visited_child == id) {
      cold_[parent].last_visited_child = kNoNode;
    }
    edges_.erase(parent, hot_[id].block);
  }
  // Reset both planes so the slot is reused from a clean record.
  free_run(hot_[id].child_begin, hot_[id].child_capacity);
  hot_[id] = HotNode{};
  cold_[id] = ColdNode{};
  free_.push_back(id);
  --live_;
}

std::size_t NodePool::actual_memory_bytes() const noexcept {
  std::size_t bytes = hot_.capacity() * sizeof(HotNode) +
                      cold_.capacity() * sizeof(ColdNode) +
                      arena_.capacity() * sizeof(NodeId) +
                      free_.capacity() * sizeof(NodeId) +
                      edges_.slots().size() * sizeof(EdgeSlot);
  for (const auto& recycled : free_runs_) {
    bytes += recycled.capacity() * sizeof(std::uint32_t);
  }
  return bytes;
}

void NodePool::audit() const {
#if PFP_AUDIT_ENABLED
  PFP_AUDIT("NodePool", hot_.size() == cold_.size(),
            "hot and cold planes disagree on node count");
  PFP_AUDIT("NodePool", live_ + free_.size() == hot_.size(),
            "live count + free list does not cover the slabs");
  // Freed slots must be fully reset: a dead id that still held a child
  // run, a parent link or a Section 9.6 pointer would look like a live
  // node to anything reading it through a stale reference.
  std::vector<bool> is_free(hot_.size(), false);
  for (const NodeId id : free_) {
    PFP_AUDIT("NodePool", id < hot_.size(), "free-list id beyond id bound");
    if (id >= hot_.size()) {
      return;
    }
    PFP_AUDIT("NodePool", !is_free[id], "node id doubly free-listed");
    is_free[id] = true;
    PFP_AUDIT("NodePool",
              hot_[id].weight == 0 && hot_[id].parent == kNoNode &&
                  hot_[id].child_count == 0 && hot_[id].child_capacity == 0 &&
                  cold_[id].last_visited_child == kNoNode &&
                  cold_[id].pos_in_parent == 0,
              "freed slot not reset (stale link or dangling child run)");
  }
  // Paint every claimed arena interval — live child runs and recycled
  // free runs — and verify single ownership of each arena slot.
  std::vector<bool> claimed(arena_.size(), false);
  const auto claim = [&](std::uint32_t begin, std::uint32_t capacity,
                         const char* what) {
    PFP_AUDIT("NodePool",
              static_cast<std::size_t>(begin) + capacity <= arena_.size(),
              "child run reaches past the arena");
    if (static_cast<std::size_t>(begin) + capacity > arena_.size()) {
      return;
    }
    for (std::uint32_t i = begin; i < begin + capacity; ++i) {
      PFP_AUDIT("NodePool", !claimed[i], what);
      claimed[i] = true;
    }
  };
  std::size_t non_root = 0;  // live nodes that own an edge-table slot
  for (NodeId id = 0; id < hot_.size(); ++id) {
    if (is_free[id]) {
      continue;
    }
    const HotNode& n = hot_[id];
    if (n.parent != kNoNode) {
      ++non_root;
    }
    PFP_AUDIT("NodePool",
              n.child_capacity == 0 ||
                  (n.child_capacity & (n.child_capacity - 1)) == 0,
              "child run capacity is not a power of two");
    PFP_AUDIT("NodePool", n.child_count <= n.child_capacity,
              "child count exceeds the run capacity");
    claim(n.child_begin, n.child_capacity,
          "live child runs overlap in the arena");
    for (std::uint32_t i = 0; i < n.child_count; ++i) {
      const NodeId c = arena_[n.child_begin + i];
      PFP_AUDIT("NodePool", c < hot_.size() && !is_free[c],
                "child run entry names a dead node");
      if (c >= hot_.size()) {
        continue;
      }
      PFP_AUDIT("NodePool", hot_[c].parent == id,
                "child run entry does not point back at its owner");
      PFP_AUDIT("NodePool", cold_[c].pos_in_parent == i,
                "child's pos_in_parent disagrees with the run");
    }
  }
  for (std::uint32_t cls = 0; cls < kRunClasses; ++cls) {
    for (const std::uint32_t begin : free_runs_[cls]) {
      claim(begin, 1u << cls, "recycled run overlaps a claimed run");
    }
  }
  // The edge table holds exactly one slot per live non-root node, and
  // each slot's key is its child's (parent, block).  PrefetchTree::audit()
  // checks the other direction: every child is found under its key.
  PFP_AUDIT("NodePool", edges_.size() == non_root,
            "edge table size differs from the live non-root node count");
  std::size_t occupied = 0;
  for (const EdgeSlot& slot : edges_.slots()) {
    if (slot.child == kNoNode) {
      continue;
    }
    ++occupied;
    PFP_AUDIT("NodePool", slot.child < hot_.size() && !is_free[slot.child],
              "edge table slot names a dead node");
    if (slot.child >= hot_.size()) {
      continue;
    }
    PFP_AUDIT("NodePool",
              hot_[slot.child].parent == slot.parent &&
                  hot_[slot.child].block == slot.block,
              "edge table key disagrees with its child's hot record");
  }
  PFP_AUDIT("NodePool", occupied == edges_.size(),
            "edge table occupancy disagrees with its size");
#endif
}

}  // namespace pfp::core::tree
