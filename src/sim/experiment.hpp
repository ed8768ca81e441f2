// Experiment runner: the cache-size / parameter sweeps behind every
// figure and table in Section 9, shared by the bench binaries.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/simulator.hpp"
#include "trace/workloads.hpp"

namespace pfp::sim {

/// The cache sizes (in blocks) the figures sweep.  The paper plots
/// roughly 128..16K; this is the default x-axis for all "vs cache size"
/// exhibits.
const std::vector<std::size_t>& default_cache_sizes();

/// One simulation request; Sweep runs batches of these.
struct RunSpec {
  const trace::Trace* trace = nullptr;  ///< non-owning; outlives the run
  engine::EngineConfig config;
};

/// Runs specs sequentially (see sweep.hpp for the threaded variant).
std::vector<Result> run_serial(const std::vector<RunSpec>& specs);

/// Builds the full (cache size x policy) grid for one trace.
std::vector<RunSpec> grid(const trace::Trace& trace,
                          const std::vector<std::size_t>& cache_sizes,
                          const std::vector<core::policy::PolicySpec>& specs,
                          const core::costben::TimingParams& timing = {});

/// Standard trace lengths for the paper-reproduction benches, scaled from
/// the originals (Table 1) to keep single-core runtimes reasonable while
/// preserving each trace's structure.  Override with --refs in benches.
std::uint64_t default_references(trace::Workload workload);

}  // namespace pfp::sim
