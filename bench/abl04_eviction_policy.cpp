// Ablation: cost-based victim selection (Eqs. 11/13) vs recency rules.
//
// Section 6.2 notes the cost equations "also determine the best buffer to
// replace during a demand fetch".  This bench replaces that machinery
// with blind recency rules to measure what the pricing actually buys.
#include <iostream>

#include "common.hpp"
#include "util/string_utils.hpp"
#include "util/table.hpp"

using namespace pfp;

int main(int argc, char** argv) {
  auto env = bench::parse_bench_args(
      argc, argv, "Ablation 4 — victim selection rule for the tree policy");

  struct Rule {
    core::policy::ReclaimRule rule;
    const char* name;
  };
  const Rule rules[] = {
      {core::policy::ReclaimRule::kCostBased, "cost-based (paper)"},
      {core::policy::ReclaimRule::kPrefetchFirst, "prefetch-first"},
      {core::policy::ReclaimRule::kDemandFirst, "demand-first"},
  };

  util::TextTable table({"trace", "rule", "miss rate", "pf hit rate",
                         "pf ejections"});
  for (const trace::Trace* t : bench::load_all_workloads(env)) {
    for (const Rule& rule : rules) {
      engine::EngineConfig config;
      config.cache_blocks = 1024;
      config.policy = bench::spec_of(core::policy::PolicyKind::kTree);
      config.policy.controller.reclaim = rule.rule;
      const auto r = sim::simulate(config, *t);
      table.row({t->name(), rule.name,
                 util::format_percent(r.metrics.miss_rate()),
                 util::format_percent(r.metrics.prefetch_cache_hit_rate()),
                 util::format_count(r.metrics.policy.prefetch_ejections)});
    }
  }
  table.print(std::cout);
  return 0;
}
