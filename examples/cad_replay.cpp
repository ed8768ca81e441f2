// Scenario: object prefetching for a CAD/EDA working set.
//
// The paper's motivating non-sequential workload: a design tool that
// re-traverses object structures whose identifiers have no spatial
// locality, so OS readahead (one-block lookahead) is useless.  This
// example replays a CAD-like session and shows (a) readahead failing,
// (b) the probability-tree prefetcher learning the traversals, and
// (c) what the predictions look like from inside the tree.
//
//   $ ./cad_replay [--refs N] [--cache N]
#include <iostream>

#include "core/tree/enumerator.hpp"
#include "sim/simulator.hpp"
#include "trace/gen_cad.hpp"
#include "util/options.hpp"
#include "util/string_utils.hpp"

using namespace pfp;

int main(int argc, char** argv) {
  util::Options options;
  options.add("refs", "147000", "trace length (paper CAD: 147,345)");
  options.add("cache", "1024", "cache size in blocks");
  options.add("seed", "1993", "workload seed");
  if (!options.parse(argc, argv)) {
    return 0;
  }

  trace::CadGenerator::Config gen;
  gen.references = options.u64("refs");
  gen.seed = options.u64("seed");
  const auto workload = trace::CadGenerator(gen).generate();
  std::cout << "CAD session: " << util::format_count(workload.size())
            << " object references, "
            << util::format_count(workload.unique_blocks())
            << " distinct objects\n\n";

  const auto cache_blocks =
      static_cast<std::size_t>(options.u64("cache"));
  sim::Result tree_result;
  sim::Result baseline;
  for (const auto kind : {core::policy::PolicyKind::kNoPrefetch,
                          core::policy::PolicyKind::kNextLimit,
                          core::policy::PolicyKind::kTree}) {
    engine::EngineConfig config;
    config.cache_blocks = cache_blocks;
    config.policy.kind = kind;
    const auto result = sim::simulate(config, workload);
    std::cout << "== " << result.policy_name << " ==\n"
              << result.metrics.summary() << "\n";
    if (kind == core::policy::PolicyKind::kTree) {
      tree_result = result;
    } else if (kind == core::policy::PolicyKind::kNoPrefetch) {
      baseline = result;
    }
  }

  // Peek inside a standalone tree trained on the same trace: what does it
  // predict from the final context?
  core::tree::PrefetchTree tree;
  for (const auto& r : workload) {
    tree.access(r.block);
  }
  std::cout << "trained tree: " << util::format_count(tree.node_count())
            << " nodes (~"
            << util::format_bytes(
                   static_cast<double>(tree.approx_memory_bytes()))
            << " at the paper's 40 B/node)\n";
  core::costben::PredictLimits limits;
  limits.max_candidates = 5;
  // The parse may have ended on a context with no history yet; fall back
  // to the root, whose children are the traversal entry points.
  auto candidates =
      core::tree::enumerate_candidates(tree, tree.current(), limits);
  if (candidates.empty()) {
    candidates = core::tree::enumerate_candidates(tree, tree.root(), limits);
  }
  std::cout << "next-object predictions from the current context:\n";
  for (const auto& c : candidates) {
    std::cout << "  object " << c.block << "  p="
              << util::format_double(c.probability, 3) << "  distance "
              << c.depth << "\n";
  }
  const double reduction =
      baseline.metrics.miss_rate() > 0
          ? 1.0 - tree_result.metrics.miss_rate() /
                      baseline.metrics.miss_rate()
          : 0.0;
  std::cout << "\nTakeaway: readahead gained nothing (object ids are "
               "scattered), while the\nprobability tree cut the miss rate "
               "by " << util::format_percent(reduction)
            << " — see bench/fig06_miss_rates for the full comparison.\n";
  return 0;
}
