// Trace utility: generate, convert, characterize and simulate traces from
// the command line.
//
//   $ ./trace_tool generate --workload cad --refs 50000 --out cad.pfpt
//   $ ./trace_tool info cad.pfpt
//   $ ./trace_tool convert cad.pfpt cad.txt
//   $ ./trace_tool simulate cad.pfpt --policy tree --cache 1024
#include <iostream>

#include "core/tree/predictability.hpp"
#include "sim/simulator.hpp"
#include "trace/characterize.hpp"
#include "trace/reader.hpp"
#include "trace/workloads.hpp"
#include "trace/writer.hpp"
#include "util/options.hpp"
#include "util/string_utils.hpp"

using namespace pfp;

namespace {

int usage() {
  std::cerr <<
      "usage: trace_tool <command> [args]\n"
      "  generate --workload cello|snake|cad|sitar --refs N --out FILE\n"
      "           [--seed N]\n"
      "  info FILE                    characterize a trace\n"
      "  convert SRC DST              transcode (.pfpt binary <-> text)\n"
      "  simulate FILE [--policy P] [--cache N] [--threshold X]\n"
      "           [--children K]\n";
  return 2;
}

int cmd_generate(int argc, char** argv) {
  util::Options options;
  options.add("workload", "cad", "cello|snake|cad|sitar");
  options.add("refs", "50000", "references to generate");
  options.add("out", "trace.pfpt", "output path (.pfpt = binary)");
  options.add("seed", "0", "seed perturbation");
  if (!options.parse(argc, argv)) {
    return 2;
  }
  const auto workload = trace::workload_from_name(options.str("workload"));
  const auto t = trace::make_workload(workload, options.u64("refs"),
                                      options.u64("seed"));
  trace::write_file(options.str("out"), t);
  std::cout << "wrote " << t.size() << " references to "
            << options.str("out") << "\n";
  return 0;
}

int cmd_info(int argc, char** argv) {
  if (argc < 1) {
    return usage();
  }
  const auto t = trace::read_file(argv[0]);
  std::cout << trace::to_string(trace::characterize(t));
  const auto lz = core::tree::measure_predictability(t);
  std::cout << "  LZ predictability: "
            << util::format_percent(lz.prediction_accuracy())
            << " (lvc revisit "
            << util::format_percent(lz.lvc_revisit_rate()) << ", "
            << lz.tree_nodes << " tree nodes)\n";
  return 0;
}

int cmd_convert(int argc, char** argv) {
  if (argc < 2) {
    return usage();
  }
  const auto t = trace::read_file(argv[0]);
  trace::write_file(argv[1], t);
  std::cout << "converted " << t.size() << " references: " << argv[0]
            << " -> " << argv[1] << "\n";
  return 0;
}

int cmd_simulate(int argc, char** argv) {
  if (argc < 1) {
    return usage();
  }
  const std::string path = argv[0];
  util::Options options;
  options.add("policy", "tree-next-limit",
              "no-prefetch|next-limit|tree|tree-next-limit|tree-lvc|"
              "perfect-selector|tree-threshold|tree-children");
  options.add("cache", "1024", "cache size in blocks");
  options.add("threshold", "0.05", "tree-threshold parameter");
  options.add("children", "3", "tree-children parameter");
  options.add("tcpu", "50", "T_cpu in milliseconds");
  if (!options.parse(argc - 1, argv + 1)) {
    return 2;
  }
  const auto t = trace::read_file(path);
  engine::EngineConfig config;
  config.cache_blocks = static_cast<std::size_t>(options.u64("cache"));
  config.timing.t_cpu = options.real("tcpu");
  config.policy.kind =
      core::policy::kind_from_name(options.str("policy"));
  config.policy.threshold = options.real("threshold");
  config.policy.children =
      static_cast<std::uint32_t>(options.u64("children"));
  const auto result = sim::simulate(config, t);
  std::cout << "policy: " << result.policy_name << "  cache: "
            << config.cache_blocks << " blocks\n"
            << result.metrics.summary();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return usage();
  }
  const std::string command = argv[1];
  try {
    if (command == "generate") {
      return cmd_generate(argc - 1, argv + 1);
    }
    if (command == "info") {
      return cmd_info(argc - 2, argv + 2);
    }
    if (command == "convert") {
      return cmd_convert(argc - 2, argv + 2);
    }
    if (command == "simulate") {
      return cmd_simulate(argc - 2, argv + 2);
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
