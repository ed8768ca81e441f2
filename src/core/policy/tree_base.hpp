// Base for every policy that maintains an LZ prefetch tree.
//
// Centralizes the parse step and the instrumentation the paper reports
// about tree behaviour regardless of policy: prediction accuracy
// (Table 2), predictable-but-uncached (Figure 14), last-visited-child
// revisit and residency (Table 3 / Figure 16), and tree size (Sec 9.3).
#pragma once

#include "core/policy/prefetcher.hpp"
#include "core/tree/prefetch_tree.hpp"

namespace pfp::core::policy {

class TreeInstrumentedPrefetcher : public Prefetcher {
 public:
  explicit TreeInstrumentedPrefetcher(tree::TreeConfig config);

  [[nodiscard]] const tree::PrefetchTree& prefetch_tree() const noexcept { return tree_; }

  /// Generic predictor-state surface: the tree is the durable predictor.
  /// The opaque stream is core/tree/serialize's "PFTR" format; the growth
  /// bound on load comes from the live policy's configuration, not the
  /// stream (it stores structure only).
  [[nodiscard]] std::uint32_t predictor_state_tag() const override;
  void save_predictor_state(std::vector<std::uint8_t>& out) const override;
  bool load_predictor_state(util::ByteReader& in) override;

 protected:
  /// Feeds the reference through the parse and updates the shared tree
  /// metrics.  Call exactly once per on_access.
  tree::AccessInfo observe_access(BlockId block, AccessOutcome outcome,
                                  Context& ctx);

  tree::PrefetchTree tree_;
};

}  // namespace pfp::core::policy
