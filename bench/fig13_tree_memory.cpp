// Figure 13: tree miss rate as a fraction of no-prefetch miss rate while
// the prefetch tree's node budget varies (CAD trace), across cache sizes.
//
// Paper shape: performance saturates around 32K nodes — at 40 bytes per
// node about 1.25 MB of memory buys the full benefit of the scheme.
#include <iostream>

#include "common.hpp"
#include "util/string_utils.hpp"
#include "util/table.hpp"

using namespace pfp;

int main(int argc, char** argv) {
  auto env = bench::parse_bench_args(
      argc, argv,
      "Figure 13 — bounded-tree miss rate relative to no-prefetch (CAD)");

  const trace::Trace& cad = bench::load_workload(env, trace::Workload::kCad);
  const std::vector<std::size_t> budgets = {1'024,  2'048,  4'096, 8'192,
                                            16'384, 32'768, 0};  // 0 = inf
  const std::vector<std::size_t> cache_sizes = {256, 1024, 4096};

  // Baselines: no-prefetch per cache size.
  std::vector<sim::RunSpec> specs;
  for (const std::size_t blocks : cache_sizes) {
    sim::RunSpec spec;
    spec.trace = &cad;
    spec.config.cache_blocks = blocks;
    spec.config.policy = bench::spec_of(core::policy::PolicyKind::kNoPrefetch);
    specs.push_back(spec);
    for (const std::size_t budget : budgets) {
      sim::RunSpec tree = spec;
      tree.config.policy = bench::spec_of(core::policy::PolicyKind::kTree);
      tree.config.policy.tree.max_nodes = budget;
      specs.push_back(tree);
    }
  }
  const auto results = bench::run_all(specs);

  util::TextTable table({"tree nodes", "memory (40 B/node)",
                         "rel. miss @256", "rel. miss @1024",
                         "rel. miss @4096"});
  for (const std::size_t budget : budgets) {
    std::vector<std::string> row;
    row.push_back(budget == 0 ? "unbounded" : util::format_count(budget));
    row.push_back(budget == 0
                      ? "-"
                      : util::format_bytes(static_cast<double>(budget) * 40));
    for (const std::size_t blocks : cache_sizes) {
      double base = 0.0;
      double tree = 0.0;
      for (const auto& r : results) {
        if (r.config.cache_blocks != blocks) {
          continue;
        }
        if (r.policy_name == "no-prefetch") {
          base = r.metrics.miss_rate();
        } else if (r.config.policy.tree.max_nodes == budget) {
          tree = r.metrics.miss_rate();
        }
      }
      row.push_back(util::format_double(base > 0 ? tree / base : 0.0, 3));
    }
    table.row(std::move(row));
  }
  table.print(std::cout);
  std::cout << "\n(values < 1 mean the bounded tree still beats "
               "no-prefetch; saturation marks the needed memory)\n";
  if (sim::maybe_write_csv(env.csv_path, results)) {
    std::cout << "(full CSV written to " << env.csv_path << ")\n";
  }
  return 0;
}
