// Scenario: embedding the prefetcher in a live system.
//
// Most of this repository replays recorded traces; real systems discover
// their reference stream one access at a time.  This example drives
// engine::PrefetchEngine exactly like a host block layer would — one
// access_many() call per reference, reading back the outcome and its
// modeled latency — and shows the predictor warming up live.  It then demonstrates persisting the whole
// trained engine (predictor tree + cache residency + metrics) with
// snapshot()/restore() and resuming it, the way a prediction service
// would survive a restart.
//
//   $ ./online_prefetcher [--refs N] [--cache N]
//
// The engine runs with its observability layer on (phase timers + event
// ring), the way a live deployment would expose itself to a metrics
// scraper; the run ends with the per-phase latency breakdown and a
// Prometheus text exposition of the counters.
#include <iostream>
#include <vector>

#include "engine/prefetch_engine.hpp"
#include "obs/prometheus.hpp"
#include "trace/gen_cad.hpp"
#include "util/options.hpp"
#include "util/string_utils.hpp"

using namespace pfp;

int main(int argc, char** argv) {
  util::Options options;
  options.add("refs", "60000", "accesses to push through the engine");
  options.add("cache", "1024", "cache size in blocks");
  if (!options.parse(argc, argv)) {
    return 0;
  }

  trace::CadGenerator::Config gen;
  gen.references = options.u64("refs");
  const auto workload = trace::CadGenerator(gen).generate();

  engine::EngineConfig config;
  config.cache_blocks = static_cast<std::size_t>(options.u64("cache"));
  config.policy.kind = core::policy::PolicyKind::kTreeNextLimit;
  config.obs.phase_timers = true;
  config.obs.trace_capacity = 2048;
  engine::PrefetchEngine eng(config);

  std::cout << "Pushing " << util::format_count(workload.size())
            << " live accesses through an embedded tree-next-limit "
               "engine...\n\n";
  std::cout << "window       miss rate   mean latency (ms)\n";
  std::cout << "------------------------------------------\n";
  const std::size_t window = workload.size() / 8;
  std::uint64_t window_misses = 0;
  double window_latency = 0.0;
  std::size_t window_count = 0;
  std::size_t window_index = 0;
  for (const auto& record : workload) {
    const auto result = eng.access_many({&record.block, 1});
    window_latency += result.latency_ms;
    window_misses += result.misses;
    if (++window_count == window) {
      std::cout << "  " << window_index++ << "          "
                << util::format_percent(
                       static_cast<double>(window_misses) /
                       static_cast<double>(window_count))
                << "      "
                << util::format_double(window_latency /
                                           static_cast<double>(window_count),
                                       3)
                << "\n";
      window_misses = 0;
      window_latency = 0.0;
      window_count = 0;
    }
  }
  std::cout << "\nfinal engine metrics:\n" << eng.metrics().summary() << "\n";

  // --- observability: where did the host CPU time actually go? ---------
  const auto stats = eng.stats();
  if (stats.phases.total_count() > 0) {
    std::cout << "per-phase latency breakdown (real time, not modeled):\n"
              << stats.phases.summary() << "\n";
  }
  std::cout << "Prometheus exposition a scraper would see:\n\n";
  const obs::Label labels[] = {{"policy", "tree-next-limit"}};
  obs::render_prometheus(std::cout, stats, labels);
  std::cout << "\n";

  // --- persistence: snapshot the trained engine, restore, resume -------
  std::vector<std::uint8_t> blob;
  eng.snapshot(blob);
  std::cout << "engine snapshot: " << blob.size() << " bytes ("
            << util::format_count(eng.metrics().policy.tree_nodes)
            << " predictor nodes + cache residency + metrics)\n";

  engine::PrefetchEngine resumed(config);
  resumed.restore(blob);
  std::cout << "restored engine resumes at access #"
            << util::format_count(resumed.metrics().accesses) << " with "
            << util::format_count(resumed.buffer_cache().resident())
            << " blocks already resident\n";

  // The restored predictor keeps the original's knowledge: replaying a
  // recent hot sequence hits immediately instead of re-warming.
  std::uint64_t hits = 0;
  const std::size_t tail = std::min<std::size_t>(workload.size(), 500);
  for (std::size_t i = workload.size() - tail; i < workload.size(); ++i) {
    const auto r = resumed.access_many({&workload[i].block, 1});
    hits += r.demand_hits + r.prefetch_hits;
  }
  std::cout << "replaying the last " << tail
            << " accesses against the restored engine: "
            << util::format_percent(static_cast<double>(hits) /
                                    static_cast<double>(tail))
            << " served from cache\n";
  return 0;
}
