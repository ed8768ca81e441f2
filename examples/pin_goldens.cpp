// Regenerates the golden table in tests/integration/metrics_pin_test.cpp.
// Run after an INTENTIONAL semantic change, paste the output over kGolden,
// and explain the drift in the commit message.  Counters print exactly;
// doubles print with max_digits10 so the pins can compare bit-identically.
#include <cinttypes>
#include <cstddef>
#include <cstdio>

#include "core/policy/factory.hpp"
#include "sim/simulator.hpp"
#include "trace/workloads.hpp"

namespace {

constexpr std::uint64_t kReferences = 30'000;
constexpr std::uint64_t kSeed = 7;
constexpr std::size_t kCacheBlocks = 512;

const pfp::core::policy::PolicyKind kKinds[] = {
    pfp::core::policy::PolicyKind::kNoPrefetch,
    pfp::core::policy::PolicyKind::kNextLimit,
    pfp::core::policy::PolicyKind::kTree,
    pfp::core::policy::PolicyKind::kTreeNextLimit,
    pfp::core::policy::PolicyKind::kTreeLvc,
    pfp::core::policy::PolicyKind::kTreeThreshold,
    pfp::core::policy::PolicyKind::kTreeChildren,
    pfp::core::policy::PolicyKind::kProbGraph,
    pfp::core::policy::PolicyKind::kPerfectSelector,
    pfp::core::policy::PolicyKind::kTreeAdaptive,
    pfp::core::policy::PolicyKind::kMarkov,
    pfp::core::policy::PolicyKind::kAssoc,
};

// Enumerator names as they appear in the Golden initializers.
const char* kind_token(pfp::core::policy::PolicyKind kind) {
  using pfp::core::policy::PolicyKind;
  switch (kind) {
    case PolicyKind::kNoPrefetch: return "kNoPrefetch";
    case PolicyKind::kNextLimit: return "kNextLimit";
    case PolicyKind::kTree: return "kTree";
    case PolicyKind::kTreeNextLimit: return "kTreeNextLimit";
    case PolicyKind::kTreeLvc: return "kTreeLvc";
    case PolicyKind::kTreeThreshold: return "kTreeThreshold";
    case PolicyKind::kTreeChildren: return "kTreeChildren";
    case PolicyKind::kProbGraph: return "kProbGraph";
    case PolicyKind::kPerfectSelector: return "kPerfectSelector";
    case PolicyKind::kTreeAdaptive: return "kTreeAdaptive";
    case PolicyKind::kMarkov: return "kMarkov";
    case PolicyKind::kAssoc: return "kAssoc";
  }
  return "?";
}

const char* workload_token(pfp::trace::Workload workload) {
  using pfp::trace::Workload;
  switch (workload) {
    case Workload::kCello: return "kCello";
    case Workload::kSnake: return "kSnake";
    case Workload::kCad: return "kCad";
    case Workload::kSitar: return "kSitar";
  }
  return "?";
}

}  // namespace

int main() {
  using namespace pfp;
  // Table order matches the test file: cad, sitar, then the PR that adds
  // a workload appends its rows at the end.
  const trace::Workload order[] = {trace::Workload::kCad,
                                   trace::Workload::kSitar,
                                   trace::Workload::kCello,
                                   trace::Workload::kSnake};
  for (const trace::Workload workload : order) {
    const trace::Trace t = trace::make_workload(workload, kReferences, kSeed);
    for (const core::policy::PolicyKind kind : kKinds) {
      engine::EngineConfig config;
      config.cache_blocks = kCacheBlocks;
      config.policy.kind = kind;
      const sim::Result r = sim::simulate(config, t);
      std::printf(
          "    {trace::Workload::%s, core::policy::PolicyKind::%s,\n"
          "     %" PRIu64 "u, %" PRIu64 "u, %" PRIu64 "u, %.17g, %.17g},\n",
          workload_token(workload), kind_token(kind), r.metrics.demand_hits,
          r.metrics.prefetch_hits, r.metrics.misses, r.metrics.stall_ms,
          r.metrics.elapsed_ms);
    }
  }
  return 0;
}
