// The two modes of the servebench binary.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace servebench {

struct DriveOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string server_binary;     ///< path to pfp_server
  std::vector<int> server_cpus;  ///< pfp_server affinity (empty = any)
  std::vector<int> client_cpus;  ///< this process's affinity (empty = any)
  std::string trace_out;         ///< traced mode: span file path
};

/// End-to-end mode; prints the result line, returns the exit code.
int run_drive(const DriveOptions& options);

/// Traced per-layer mode; prints the result line, returns the exit code.
int run_traced(const DriveOptions& options);

}  // namespace servebench
