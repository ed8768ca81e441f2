// Binary (de)serialization of the prefetch tree.
//
// Format: "PFTR" magic, little-endian u16 version, u64 node count, then a
// preorder walk — the root contributes (weight u64, child count u32) and
// every other node (block u64, weight u64, child count u32).  Children
// appear in the stored descending-weight order, so reconstruction keeps
// the sorted-children invariant by plain appends.
//
// The rebuild sizes everything once: the node count (checked against the
// bytes present first) reserves both pool planes, the edge map and the
// leaf LRU, and each node's stored child count sizes its child run.  The
// duplicate-edge check is the edge-map insert itself.
#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/tree/prefetch_tree.hpp"
#include "util/assert.hpp"
#include "util/binary_io.hpp"
#include "util/prefetch.hpp"

namespace pfp::core::tree {

namespace {

constexpr std::array<char, 4> kMagic = {'P', 'F', 'T', 'R'};
constexpr std::uint16_t kVersion = 1;
constexpr std::size_t kHeaderBytes = 4 + 2 + 8;
constexpr std::size_t kRootBytes = 8 + 4;
constexpr std::size_t kNodeBytes = 8 + 8 + 4;

[[noreturn]] void corrupt(const char* what) {
  throw std::runtime_error(std::string("prefetch-tree stream: ") + what);
}

}  // namespace

void PrefetchTree::serialize(std::vector<std::uint8_t>& out) const {
  // The image size is exact, so the buffer is sized once and filled
  // through a cursor.
  const std::size_t at = out.size();
  out.resize(at + kHeaderBytes + kRootBytes + kNodeBytes * (node_count() - 1));
  std::uint8_t* p = std::copy(kMagic.begin(), kMagic.end(), out.data() + at);
  p = util::store_le(p, kVersion);
  p = util::store_le<std::uint64_t>(p, node_count());
  p = util::store_le(p, pool_.weight(root()));
  p = util::store_le(p, pool_.child_count(root()));

  // Preorder via explicit stack (trees can be deep on long traces).  The
  // walk order is unrelated to id order, so every record would otherwise
  // be a miss: a node's hot record is prefetched when it is pushed, and
  // the next node's child run once its record has had time to arrive.
  const HotNode* hot = pool_.hot_data();
  const NodeId* arena = pool_.child_arena();
  std::vector<NodeId> stack;
  const auto push_children = [&](const HotNode& node) {
    for (std::uint32_t i = node.child_count; i > 0; --i) {
      const NodeId child = arena[node.child_begin + i - 1];
      util::prefetch_read(&hot[child]);
      stack.push_back(child);
    }
  };
  push_children(hot[root()]);
  while (!stack.empty()) {
    const HotNode& node = hot[stack.back()];
    stack.pop_back();
    p = util::store_le(p, node.block);
    p = util::store_le(p, node.weight);
    p = util::store_le(p, node.child_count);
    push_children(node);
    if (!stack.empty()) {
      util::prefetch_read(arena + hot[stack.back()].child_begin);
    }
  }
  PFP_DASSERT(p == out.data() + out.size());
}

NodeId PrefetchTree::restore_child(NodeId parent, BlockId block,
                                   std::uint64_t weight,
                                   std::uint32_t child_count) {
  const NodeId added = pool_.create(parent, block);
  if (added == kNoNode) {
    return kNoNode;
  }
  pool_.hot(added).weight = weight;
  if (child_count > 0) {
    pool_.reserve_children(added, child_count);
  } else {
    // Only stored leaves enter the LRU.  Pushing them in preorder gives
    // the order the parse-time push-then-unlink-on-first-child produces.
    PFP_DASSERT(added < leaf_lru_.capacity());
    leaf_lru_.push_front(added);
  }
  return added;
}

PrefetchTree PrefetchTree::deserialize(util::ByteReader& in,
                                       TreeConfig config) {
  if (!in.read_magic(kMagic)) {
    corrupt("bad magic");
  }
  if (in.read_u16() != kVersion) {
    corrupt("unsupported version");
  }
  const std::uint64_t expected_nodes = in.read_u64();
  if (!in.ok() || expected_nodes == 0) {
    corrupt("truncated header");
  }
  // Every non-root node is one kNodeBytes record, so a count the bytes
  // cannot hold is garbage — rejected before anything is sized from it.
  if (expected_nodes - 1 > in.remaining() / kNodeBytes) {
    corrupt("node count exceeds the bytes present");
  }

  PrefetchTree tree(config);
  tree.pool_.reserve(expected_nodes);
  // The same headroom access() grows the LRU to, so the first nodes the
  // parse adds after a restore do not regrow it.
  tree.leaf_lru_.resize(expected_nodes * 2 + 16);
  tree.pool_.hot(tree.root_).weight = in.read_u64();
  const std::uint32_t root_children = in.read_u32();
  // Stored child counts must add up to at most the node count; this also
  // bounds the child runs reserved from them.
  std::uint64_t claimed = root_children;
  if (claimed > expected_nodes - 1) {
    corrupt("child counts exceed the node count");
  }
  tree.pool_.reserve_children(tree.root_, root_children);

  struct Pending {
    NodeId parent;
    std::uint32_t remaining;
    std::uint64_t last_child_weight;  // descending-order validation
    std::uint64_t weight_budget;      // children's weights sum <= parent's
  };
  std::vector<Pending> stack;
  if (root_children > 0) {
    stack.push_back(Pending{tree.root_, root_children, ~0ULL,
                            tree.pool_.weight(tree.root_)});
  }
  while (!stack.empty()) {
    Pending& top = stack.back();
    if (top.remaining == 0) {
      stack.pop_back();
      continue;
    }
    --top.remaining;
    const BlockId block = in.read_u64();
    const std::uint64_t weight = in.read_u64();
    const std::uint32_t child_count = in.read_u32();
    if (!in.ok()) {
      corrupt("truncated body");
    }
    if (weight == 0 || weight > top.last_child_weight ||
        weight > top.weight_budget) {
      corrupt("weight invariant violated");
    }
    claimed += child_count;
    if (claimed > expected_nodes - 1) {
      corrupt("child counts exceed the node count");
    }
    top.last_child_weight = weight;
    top.weight_budget -= weight;
    const NodeId parent = top.parent;  // `top` may dangle after push_back
    const NodeId added =
        tree.restore_child(parent, block, weight, child_count);
    if (added == kNoNode) {
      corrupt("duplicate edge");
    }
    if (child_count > 0) {
      stack.push_back(Pending{added, child_count, ~0ULL, weight});
    }
  }
  if (tree.node_count() != expected_nodes) {
    corrupt("node count mismatch");
  }
  return tree;
}

}  // namespace pfp::core::tree
