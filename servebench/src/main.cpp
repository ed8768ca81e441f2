// servebench: the served-path benchmark client and traced-run harness.
//
//   servebench --mode drive  --workload cad-batch --seed 1 --seconds 10
//              --server .bench_build/pfp/tools/pfp_server
//              --server-cpus 2,3 --client-cpus 0,1
//   servebench --mode traced --workload snake-ship --seed 1 --seconds 10
//              --server ... --trace-out spans.json
//
// The last stdout line is one JSON object; servebench/run.py wraps it.
#include <exception>
#include <iostream>
#include <sstream>

#include "drive.hpp"
#include "util/options.hpp"

namespace {

std::vector<int> parse_cpus(const std::string& text) {
  std::vector<int> cpus;
  std::istringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (!item.empty()) {
      cpus.push_back(std::stoi(item));
    }
  }
  return cpus;
}

}  // namespace

int main(int argc, char** argv) {
  pfp::util::Options options;
  options.add("mode", "drive", "drive (end to end) or traced (per layer)");
  options.add("workload", "cad-batch", "cad-batch, sitar-frames, snake-ship");
  options.add("seed", "1", "input seed");
  options.add("seconds", "10", "measuring time");
  options.add("server", "", "pfp_server binary");
  options.add("server-cpus", "", "comma-separated CPUs for pfp_server");
  options.add("client-cpus", "", "comma-separated CPUs for this process");
  options.add("trace-out", "", "traced mode: Chrome trace_event span file");
  if (!options.parse(argc, argv)) {
    return 2;
  }
  servebench::DriveOptions drive;
  drive.workload = options.str("workload");
  drive.seed = options.u64("seed");
  drive.seconds = options.real("seconds");
  drive.server_binary = options.str("server");
  drive.server_cpus = parse_cpus(options.str("server-cpus"));
  drive.client_cpus = parse_cpus(options.str("client-cpus"));
  drive.trace_out = options.str("trace-out");
  try {
    const std::string mode = options.str("mode");
    if (mode == "drive") {
      return servebench::run_drive(drive);
    }
    if (mode == "traced") {
      return servebench::run_traced(drive);
    }
    std::cerr << "servebench: unknown --mode " << mode << std::endl;
    return 2;
  } catch (const std::exception& err) {
    std::cerr << "servebench: " << err.what() << std::endl;
    return 1;
  }
}
