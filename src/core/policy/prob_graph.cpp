#include "core/policy/prob_graph.hpp"

#include <algorithm>

#include "core/policy/eviction.hpp"
#include "util/assert.hpp"

namespace pfp::core::policy {

ProbGraph::ProbGraph() : ProbGraph(ProbGraphConfig{}) {}

ProbGraph::ProbGraph(ProbGraphConfig config) : config_(config) {
  PFP_REQUIRE(config_.min_probability > 0.0 &&
              config_.min_probability <= 1.0);
  PFP_REQUIRE(config_.max_prefetches >= 1);
  PFP_REQUIRE(config_.max_successors >= 1);
}

void ProbGraph::record_transition(BlockId from, BlockId to) {
  Node& node = graph_[from];
  ++node.total;
  auto& edges = node.edges;
  const auto it = std::find_if(edges.begin(), edges.end(),
                               [&](const Edge& e) {
                                 return e.successor == to;
                               });
  if (it != edges.end()) {
    ++it->count;
    // Restore descending order with a single bubble step (counts grow by
    // one, so the edge can climb at most past equal-count neighbours).
    auto pos = it;
    while (pos != edges.begin() && (pos - 1)->count < pos->count) {
      std::iter_swap(pos - 1, pos);
      --pos;
    }
    return;
  }
  if (edges.size() < config_.max_successors) {
    edges.push_back(Edge{to, 1});
    return;
  }
  // Full: replace the weakest edge (list is sorted, so it is the last).
  edges.back() = Edge{to, 1};
}

double ProbGraph::successor_probability(BlockId block,
                                        BlockId successor) const {
  const auto it = graph_.find(block);
  if (it == graph_.end() || it->second.total == 0) {
    return 0.0;
  }
  for (const Edge& e : it->second.edges) {
    if (e.successor == successor) {
      return static_cast<double>(e.count) /
             static_cast<double>(it->second.total);
    }
  }
  return 0.0;
}

void ProbGraph::on_access(BlockId block, AccessOutcome outcome,
                          Context& ctx) {
  (void)outcome;
  if (has_previous_) {
    record_transition(previous_, block);
  }
  previous_ = block;
  has_previous_ = true;

  std::uint32_t issued = 0;
  const auto it = graph_.find(block);
  if (it != graph_.end() && it->second.total > 0) {
    const double total = static_cast<double>(it->second.total);
    for (const Edge& edge : it->second.edges) {
      if (issued >= config_.max_prefetches) {
        break;
      }
      const double p = static_cast<double>(edge.count) / total;
      if (p < config_.min_probability) {
        break;  // sorted by count: the rest are weaker
      }
      ++ctx.metrics.candidates_chosen;
      if (ctx.cache.contains(edge.successor)) {
        ++ctx.metrics.candidates_already_cached;
        continue;
      }
      if (ctx.cache.free_buffers() == 0) {
        evict_prefetch_first(ctx);
      }
      issue_prefetch(ctx, edge.successor, p, /*depth=*/1, /*x=*/0,
                     /*obl=*/false);
      ++issued;
    }
  }
  ctx.estimators.end_period(issued);
}

void ProbGraph::reclaim_for_demand(Context& ctx) {
  evict_prefetch_first(ctx);
}

}  // namespace pfp::core::policy
