// Quickstart: the library in five minutes.
//
//  1. Build an LZ prefetch tree from a handful of block accesses and ask
//     it for predictions (the paper's Figure 1 example).
//  2. Run the cost-benefit "tree" prefetcher against a tiny synthetic
//     workload and compare it with no prefetching.
//
//   $ ./quickstart
#include <iostream>

#include "core/tree/enumerator.hpp"
#include "core/tree/prefetch_tree.hpp"
#include "sim/simulator.hpp"
#include "trace/trace.hpp"
#include "util/prng.hpp"
#include "util/string_utils.hpp"

using namespace pfp;

namespace {

void demo_prefetch_tree() {
  std::cout << "--- 1. The prefetch tree (paper Figure 1) ---\n";
  // Blocks: a = 1, b = 2, c = 3.  Access string (a)(ac)(ab)(aba)(abb)(b).
  core::tree::PrefetchTree tree;
  for (const trace::BlockId b : {1u, 1u, 3u, 1u, 2u, 1u, 2u, 1u, 1u, 2u,
                                 2u, 2u}) {
    tree.access(b);
  }
  const auto root = tree.root();
  std::cout << "root weight (substrings seen): " << tree.node(root).weight
            << "\n";
  for (const auto child : tree.children(root)) {
    std::cout << "  P(block " << tree.node(child).block
              << " starts the next run) = "
              << util::format_percent(tree.edge_probability(root, child))
              << "\n";
  }

  core::costben::PredictLimits limits;
  const auto candidates =
      core::tree::enumerate_candidates(tree, root, limits);
  std::cout << "prefetch candidates from the root, most probable first:\n";
  for (const auto& c : candidates) {
    std::cout << "  block " << c.block << "  p=" << c.probability
              << "  distance=" << c.depth << "\n";
  }
}

void demo_simulation() {
  std::cout << "\n--- 2. Cost-benefit prefetching vs plain LRU ---\n";
  // A workload a plain cache handles badly: a 60-block non-sequential
  // pattern looping through a 32-block cache.
  trace::Trace workload("looping-pattern");
  util::SplitMix64 scatter(2024);
  std::vector<trace::BlockId> pattern;
  for (int i = 0; i < 60; ++i) {
    pattern.push_back(scatter.next() >> 20);
  }
  for (int round = 0; round < 300; ++round) {
    for (const auto b : pattern) {
      workload.append(b);
    }
  }

  for (const auto kind : {core::policy::PolicyKind::kNoPrefetch,
                          core::policy::PolicyKind::kTree}) {
    engine::EngineConfig config;
    config.cache_blocks = 32;
    config.policy.kind = kind;
    const auto result = sim::simulate(config, workload);
    std::cout << result.policy_name << ": miss rate "
              << util::format_percent(result.metrics.miss_rate())
              << ", simulated time "
              << util::format_double(result.metrics.elapsed_ms / 1000.0, 1)
              << " s\n";
  }
  std::cout << "\nThe tree learns the pattern and prefetches it ahead of "
               "use;\nsee examples/cad_replay.cpp for a realistic version "
               "of this effect.\n";
}

}  // namespace

int main() {
  demo_prefetch_tree();
  demo_simulation();
  return 0;
}
