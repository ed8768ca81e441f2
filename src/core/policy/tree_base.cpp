#include "core/policy/tree_base.hpp"

#include <utility>

namespace pfp::core::policy {

TreeInstrumentedPrefetcher::TreeInstrumentedPrefetcher(
    tree::TreeConfig config)
    : tree_(config) {}

std::uint32_t TreeInstrumentedPrefetcher::predictor_state_tag() const {
  return kPredictorTree;
}

void TreeInstrumentedPrefetcher::save_predictor_state(
    std::vector<std::uint8_t>& out) const {
  tree_.serialize(out);
}

bool TreeInstrumentedPrefetcher::load_predictor_state(util::ByteReader& in) {
  // The restored tree replaces the live one wholesale; its parse starts
  // at the root.  Candidate enumeration keeps no state derived from a
  // tree (only scratch buffers), so nothing needs invalidating here.
  tree_ = tree::PrefetchTree::deserialize(in, tree_.config());
  return true;
}

tree::AccessInfo TreeInstrumentedPrefetcher::observe_access(
    BlockId block, AccessOutcome outcome, Context& ctx) {
  const tree::AccessInfo info = tree_.access(block);

  // Table 2: the access was predictable if it matched a child of the
  // pre-access parse position.  Figure 14 additionally asks whether such
  // predictable blocks were already resident — `outcome` tells us, since
  // it reflects the cache state at access time.
  if (info.predictable) {
    ++ctx.metrics.predictable;
    if (outcome == AccessOutcome::kMiss) {
      ++ctx.metrics.predictable_uncached;
    }
  }
  // Table 3: successive visits through a node's last-visited child.
  if (info.had_lvc) {
    ++ctx.metrics.lvc_opportunities;
    if (info.followed_lvc) {
      ++ctx.metrics.lvc_followed;
    }
  }
  // Figure 16: at the new parse position, is the block the last-visited
  // child points at already cached?  This is exactly what a tree-lvc
  // prefetch attempt would discover (Section 9.6).
  const tree::NodeId lvc = tree_.last_visited_child(tree_.current());
  if (lvc != tree::kNoNode) {
    ++ctx.metrics.lvc_checks;
    if (ctx.cache.contains(tree_.block(lvc))) {
      ++ctx.metrics.lvc_cached;
    }
  }

  ctx.metrics.tree_nodes = tree_.node_count();
  ctx.metrics.tree_bytes = tree_.approx_memory_bytes();
  util::phase_mark(ctx.phases, util::EnginePhase::kPredictorUpdate);
  return info;
}

}  // namespace pfp::core::policy
