#include "core/tree/enumerator.hpp"

#include <algorithm>

#include "util/prefetch.hpp"

namespace pfp::core::tree {

void CandidateEnumerator::seen_reset(std::size_t max_candidates) {
  // At most max_candidates blocks are ever inserted; keep load <= 1/2 so
  // probe chains stay short.
  std::size_t want = 16;
  while (want < max_candidates * 2) {
    want <<= 1;
  }
  if (seen_.size() != want) {
    seen_.assign(want, SeenSlot{});
    seen_generation_ = 0;
  }
  if (++seen_generation_ == 0) {  // generation wrapped: purge stale stamps
    std::fill(seen_.begin(), seen_.end(), SeenSlot{});
    seen_generation_ = 1;
  }
}

bool CandidateEnumerator::seen_insert(BlockId block) {
  const std::size_t mask = seen_.size() - 1;
  std::uint64_t h = block;  // splitmix-style mix; blocks are sparse
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  h ^= h >> 31;
  std::size_t i = static_cast<std::size_t>(h) & mask;
  while (true) {
    SeenSlot& slot = seen_[i];
    if (slot.generation != seen_generation_) {
      slot.generation = seen_generation_;
      slot.block = block;
      return true;
    }
    if (slot.block == block) {
      return false;
    }
    i = (i + 1) & mask;
  }
}

std::span<const costben::PredictedBlock> CandidateEnumerator::enumerate(
    const PrefetchTree& tree, NodeId from,
    const costben::PredictLimits& limits) {
  out_.clear();
  if (tree.weight(from) == 0) {
    return {};  // empty tree: no statistics yet
  }
  frontier_.clear();
  seen_reset(limits.max_candidates);
  out_.reserve(limits.max_candidates);

  const HotNode* nodes = tree.pool().hot_data();
  const NodeId* arena = tree.pool().child_arena();
  const std::uint32_t max_depth = limits.max_depth;
  const double min_probability = limits.min_probability;
  const std::size_t max_candidates = limits.max_candidates;

  // How far ahead of the scan position sibling hot-plane gathers are
  // prefetched.  The sibling run itself is contiguous (streamed by the
  // hardware); the per-child weight reads scatter across the hot plane
  // and are exactly the pointer-chase this hides.
  constexpr std::size_t kGatherAhead = 4;

  const auto push_children = [&](NodeId parent_id, double path_prob,
                                 std::uint32_t depth) {
    if (depth >= max_depth) {
      return;
    }
    const HotNode& parent = nodes[parent_id];
    // Children are kept sorted by descending weight, hence descending
    // edge probability: stop at the first child below the cutoff.  The
    // divide per child matches edge_probability() exactly (hoisting only
    // the integer->double conversion of the shared denominator).
    const double parent_weight = static_cast<double>(parent.weight);
    const NodeId* children = arena + parent.child_begin;
    const std::size_t child_count = parent.child_count;
    for (std::size_t i = 0; i < kGatherAhead && i < child_count; ++i) {
      util::prefetch_read(&nodes[children[i]]);
    }
    for (std::size_t i = 0; i < child_count; ++i) {
      if (i + kGatherAhead < child_count) {
        util::prefetch_read(&nodes[children[i + kGatherAhead]]);
      }
      const NodeId child = children[i];
      const double p =
          path_prob *
          (static_cast<double>(nodes[child].weight) / parent_weight);
      if (p < min_probability) {
        break;
      }
      // This child is now on the frontier and will have its own run
      // scanned if popped: stage the next level's sibling run while the
      // current one streams (best-first descent prefetch).  Leaves have
      // no run — most frontier nodes near the cutoff are leaves, so the
      // gate saves more bandwidth than the (cached) count read costs.
      if (nodes[child].child_count != 0) {
        util::prefetch_read(arena + nodes[child].child_begin);
      }
      frontier_.push_back(FrontierItem{p, path_prob, child, depth + 1});
      std::push_heap(frontier_.begin(), frontier_.end());
    }
  };

  push_children(from, 1.0, 0);

  while (!frontier_.empty() && out_.size() < max_candidates) {
    std::pop_heap(frontier_.begin(), frontier_.end());
    const FrontierItem item = frontier_.back();
    frontier_.pop_back();
    if (!frontier_.empty()) {
      // The heap root is the next node whose run gets scanned; warm its
      // hot-plane entry while this item's children are pushed.
      util::prefetch_read(&nodes[frontier_.front().node]);
    }
    const HotNode& node = nodes[item.node];
    // A block can be a descendant along several paths; heap order makes
    // the first occurrence the most probable one.
    if (seen_insert(node.block)) {
      out_.push_back(costben::PredictedBlock{node.block, item.probability,
                                             item.parent_probability,
                                             item.depth});
    }
    push_children(item.node, item.probability, item.depth);
  }
  return {out_.data(), out_.size()};
}

std::vector<costben::PredictedBlock> enumerate_candidates(
    const PrefetchTree& tree, NodeId from,
    const costben::PredictLimits& limits) {
  // One scratch enumerator per thread keeps the walk's frontier, dedup
  // and output buffers warm across one-shot calls.
  thread_local CandidateEnumerator scratch;
  const std::span<const costben::PredictedBlock> candidates =
      scratch.enumerate(tree, from, limits);
  return {candidates.begin(), candidates.end()};
}

}  // namespace pfp::core::tree
