#include "sim/simulator.hpp"

namespace pfp::sim {

Result Simulator::run(const trace::Trace& trace) {
  engine_.access_many(trace.blocks());
  Result result;
  result.config = engine_.config();
  result.policy_name = engine_.prefetcher().name();
  result.trace_name = trace.name();
  result.metrics = engine_.metrics();
  return result;
}

Result simulate(const engine::EngineConfig& config, const trace::Trace& trace) {
  Simulator simulator(config);
  return simulator.run(trace);
}

}  // namespace pfp::sim
