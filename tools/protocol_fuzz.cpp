// protocol_fuzz: deterministic PFP1 corpus fuzzing (see
// src/server/fuzz.hpp).  Exit 0 when the protocol's total-error
// contract held for every case; 1 with the violation count otherwise.
//
//   protocol_fuzz --seed 1 --cases 2000        # CI smoke (ASan build)
//   protocol_fuzz --seed 1 --cases 20000       # nightly 10x soak

#include <iostream>

#include "server/fuzz.hpp"
#include "util/options.hpp"

int main(int argc, char** argv) {
  pfp::util::Options options;
  options.add("seed", "24414088133", "corpus seed");
  options.add("cases", "2000", "generated cases");
  options.add("max-case-bytes", "4096", "max bytes per generated case");
  if (!options.parse(argc, argv)) {
    return 2;
  }
  pfp::server::FuzzOptions fuzz;
  fuzz.seed = options.u64("seed");
  fuzz.cases = options.u64("cases");
  fuzz.max_case_bytes = options.u64("max-case-bytes");

  const pfp::server::FuzzReport report = pfp::server::run_protocol_fuzz(fuzz);
  std::cout << "protocol_fuzz: cases=" << report.cases
            << " bytes=" << report.bytes
            << " frames=" << report.frames_handled
            << " errors=" << report.errors_sent
            << " fatal_sessions=" << report.fatal_sessions
            << " restores_past_magic=" << report.restores_past_magic
            << " restores_accepted=" << report.restores_accepted
            << " contract_violations=" << report.contract_violations
            << std::endl;
  if (report.contract_violations != 0) {
    std::cerr << "protocol_fuzz: CONTRACT VIOLATIONS — replay with --seed "
              << fuzz.seed << " --cases " << fuzz.cases << std::endl;
    return 1;
  }
  return 0;
}
