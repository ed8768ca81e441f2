// perfect-selector: the Section 9.5 oracle bound on selection quality.
//
// Knows the next trace reference (via Context::next_block) and prefetches
// it if and only if the tree identifies it as predictable — i.e. perfect
// *selection* among the tree's candidates, with unchanged *prediction*.
// The gap between this and plain tree measures how much better candidate
// selection could get (Figure 15).
#pragma once

#include "core/policy/tree_base.hpp"

namespace pfp::core::policy {

class PerfectSelector final : public TreeInstrumentedPrefetcher {
 public:
  PerfectSelector();  // unbounded tree
  explicit PerfectSelector(tree::TreeConfig config);

  [[nodiscard]] std::string name() const override { return "perfect-selector"; }
  void on_access(BlockId block, AccessOutcome outcome,
                 Context& ctx) override;
  void reclaim_for_demand(Context& ctx) override;
};

}  // namespace pfp::core::policy
