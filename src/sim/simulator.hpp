// The trace-driven simulator (Section 8).
//
// Thin replay driver over engine::PrefetchEngine: the per-access state
// machine (cache lookup -> predictor update -> candidate enumeration ->
// cost-benefit decision -> prefetch issue -> eviction) and the Section 3
// timing charges live in the engine; this class just feeds it a recorded
// trace and assembles a Result.
#pragma once

#include <string>

#include "engine/prefetch_engine.hpp"
#include "trace/trace.hpp"

namespace pfp::sim {

struct Result {
  engine::EngineConfig config;
  std::string policy_name;
  std::string trace_name;
  engine::Metrics metrics;
};

class Simulator {
 public:
  explicit Simulator(const engine::EngineConfig& config) : engine_(config) {}

  /// Replays the whole trace as one engine access_many() call; the
  /// simulator is single-use.
  Result run(const trace::Trace& trace);

  [[nodiscard]] const cache::BufferCache& buffer_cache() const {
    return engine_.buffer_cache();
  }
  [[nodiscard]] const engine::Metrics& metrics() const {
    return engine_.metrics();
  }
  [[nodiscard]] const core::policy::Prefetcher& prefetcher() const {
    return engine_.prefetcher();
  }

  /// The underlying engine, for hosts that outgrow the replay API.
  [[nodiscard]] engine::PrefetchEngine& engine() noexcept { return engine_; }
  [[nodiscard]] const engine::PrefetchEngine& engine() const noexcept {
    return engine_;
  }

 private:
  engine::PrefetchEngine engine_;
};

/// Convenience: build and run in one call.
Result simulate(const engine::EngineConfig& config, const trace::Trace& trace);

}  // namespace pfp::sim
