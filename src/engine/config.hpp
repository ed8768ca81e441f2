// Engine configuration: everything a PrefetchEngine needs to run.
//
// It lives below the sim layer so embedding hosts can construct engines
// without pulling in the trace-replay harness.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/costben/timing_model.hpp"
#include "core/policy/factory.hpp"
#include "obs/engine_obs.hpp"

namespace pfp::engine {

struct EngineConfig {
  std::size_t cache_blocks = 1024;  ///< combined demand+prefetch capacity
  /// Number of disks in the array; 0 = the paper's infinite-disk
  /// assumption (every request completes in exactly T_disk).
  std::uint32_t disks = 0;
  core::costben::TimingParams timing;
  core::policy::PolicySpec policy;
  /// Observability knobs (docs/observability.md).  Counters are always
  /// live; phase timers and the event ring are opt-in here.  Never
  /// affects prefetch decisions.
  obs::ObsOptions obs;
};

/// Checks the configuration invariants the per-access state machine
/// depends on: a non-empty buffer pool, strictly positive timing
/// parameters (a zero or negative T_* silently corrupts every Eq. 1-14
/// decision downstream), and a well-formed policy spec.  Throws
/// std::invalid_argument with a message naming the offending field.
/// PrefetchEngine's constructor calls this on every configuration.
void validate(const EngineConfig& config);

}  // namespace pfp::engine
