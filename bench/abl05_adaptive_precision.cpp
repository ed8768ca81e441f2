// Ablation: the adaptive precision floor (the paper's future work,
// Section 9.2.2) vs the plain cost-benefit tree.
//
// Measures whether "eliminating mispredicted blocks" via hit-ratio
// feedback trims wasted prefetch traffic without giving up miss-rate.
#include <iostream>

#include "common.hpp"
#include "util/string_utils.hpp"
#include "util/table.hpp"

using namespace pfp;

int main(int argc, char** argv) {
  auto env = bench::parse_bench_args(
      argc, argv,
      "Ablation 5 — tree vs tree-adaptive (precision feedback)");

  util::TextTable table({"trace", "policy", "miss rate", "prefetches",
                         "pf hit rate", "traffic vs misses"});
  for (const trace::Trace* t : bench::load_all_workloads(env)) {
    for (const auto kind : {core::policy::PolicyKind::kTree,
                            core::policy::PolicyKind::kTreeAdaptive}) {
      engine::EngineConfig config;
      config.cache_blocks = 1024;
      config.policy = bench::spec_of(kind);
      const auto r = sim::simulate(config, *t);
      // (built via insert: GCC 12's -Wrestrict false-positives on
      // literal + std::string temporaries at -O3)
      std::string traffic =
          util::format_percent(r.metrics.prefetch_traffic_ratio());
      traffic.insert(traffic.begin(), '+');
      table.row({t->name(), r.policy_name,
                 util::format_percent(r.metrics.miss_rate()),
                 util::format_count(r.metrics.policy.prefetches_issued),
                 util::format_percent(r.metrics.prefetch_cache_hit_rate()),
                 traffic});
    }
  }
  table.print(std::cout);
  return 0;
}
