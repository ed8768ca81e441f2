// Scenario: sizing the buffer cache of a file server.
//
// Generates a snake-like file-server workload (sequential file reads from
// many clients behind a small first-level cache) and reports, for a range
// of second-level cache sizes, what each prefetching policy buys — the
// kind of study an operator would run before provisioning RAM.  The study
// drives engine::PrefetchEngine through its one entry point,
// access_many(), then sizes up with engine::ShardedEngine to show what
// hash-partitioning the block space across cores buys.
//
//   $ ./file_server_sim [--refs N] [--clients N] [--csv out.csv]
//
// The final sharded run doubles as an observability demo: it scrapes the
// live engine counters into a Prometheus text exposition and dumps the
// per-shard event rings as Chrome trace_event JSON (open the file in
// chrome://tracing or https://ui.perfetto.dev).
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <vector>

#include "engine/prefetch_engine.hpp"
#include "engine/sharded_engine.hpp"
#include "obs/prometheus.hpp"
#include "sim/report.hpp"
#include "trace/gen_fileserver.hpp"
#include "trace/l1_filter.hpp"
#include "util/options.hpp"
#include "util/string_utils.hpp"

using namespace pfp;

int main(int argc, char** argv) {
  util::Options options;
  options.add("refs", "150000", "post-filter trace length");
  options.add("clients", "12", "concurrently active clients");
  options.add("l1-mb", "5", "first-level cache size in MiB (8 KiB blocks)");
  options.add("seed", "42", "workload seed");
  options.add("csv", "", "write full results CSV here");
  options.add("trace-json", "file_server_trace.json",
              "write the sharded run's Chrome trace here (empty = skip)");
  if (!options.parse(argc, argv)) {
    return 0;
  }

  std::cout << "File-server cache sizing study\n";
  trace::FileServerGenerator::Config gen;
  gen.references = options.u64("refs") * 3;
  gen.clients = static_cast<std::uint32_t>(options.u64("clients"));
  gen.seed = options.u64("seed");
  const auto raw = trace::FileServerGenerator(gen).generate();
  trace::L1Filter l1(options.u64("l1-mb") * 1024 * 1024 / 8192);
  trace::Trace workload = l1.filter(raw);
  workload.truncate(options.u64("refs"));
  workload.set_name("file-server");
  std::cout << "workload: " << util::format_count(workload.size())
            << " disk-level references ("
            << util::format_percent(
                   static_cast<double>(l1.hits()) /
                   static_cast<double>(l1.hits() + l1.misses()))
            << " of raw accesses absorbed by the first-level cache)\n";

  std::vector<core::policy::PolicySpec> policies(4);
  policies[0].kind = core::policy::PolicyKind::kNoPrefetch;
  policies[1].kind = core::policy::PolicyKind::kNextLimit;
  policies[2].kind = core::policy::PolicyKind::kTree;
  policies[3].kind = core::policy::PolicyKind::kTreeNextLimit;

  // The sizing grid, driven through the embeddable engine: the whole
  // workload goes through one access_many() call per configuration.
  const std::vector<trace::BlockId> blocks = workload.blocks();
  const std::vector<std::size_t> sizes = {256, 512, 1024, 2048, 4096};
  std::vector<sim::Result> results;
  for (const auto& policy : policies) {
    for (const std::size_t size : sizes) {
      engine::EngineConfig config;
      config.cache_blocks = size;
      config.policy = policy;
      engine::PrefetchEngine eng(config);
      eng.access_many(blocks);
      sim::Result r;
      r.config = config;
      r.policy_name = eng.prefetcher().name();
      r.trace_name = workload.name();
      r.metrics = eng.metrics();
      results.push_back(std::move(r));
    }
  }

  sim::print_series_by_cache_size(
      std::cout, results,
      [](const sim::Result& r) { return r.metrics.miss_rate(); },
      "miss rate", /*percent=*/true);

  std::cout << "\nSimulated elapsed time (s) — what the miss rates mean "
               "for throughput:\n";
  sim::print_series_by_cache_size(
      std::cout, results,
      [](const sim::Result& r) { return r.metrics.elapsed_ms / 1000.0; },
      "simulated seconds", /*percent=*/false);

  // Provisioning verdict: smallest cache within 10% of the best observed
  // miss rate, per policy.
  std::cout << "\nSmallest cache within 10% of each policy's best miss "
               "rate:\n";
  for (const auto& policy : policies) {
    double best = 1.0;
    for (const auto& r : results) {
      if (r.config.policy.kind == policy.kind) {
        best = std::min(best, r.metrics.miss_rate());
      }
    }
    for (const std::size_t size : sizes) {
      const auto it = std::find_if(
          results.begin(), results.end(), [&](const sim::Result& r) {
            return r.config.policy.kind == policy.kind &&
                   r.config.cache_blocks == size;
          });
      if (it != results.end() &&
          it->metrics.miss_rate() <= best * 1.1 + 1e-9) {
        std::cout << "  " << it->policy_name << ": " << size << " blocks ("
                  << util::format_bytes(static_cast<double>(size) * 8192)
                  << ")\n";
        break;
      }
    }
  }
  if (sim::maybe_write_csv(options.str("csv"), results)) {
    std::cout << "(full CSV written to " << options.str("csv") << ")\n";
  }

  // --- scaling out: deal the stream across cores ------------------------
  // A busy server can deal the reference stream out in runs to
  // independent engines, one worker thread each.  Each shard predicts
  // from its own runs only, so the miss rate rises with the shard count
  // while wall-clock throughput scales with real cores.
  std::cout
      << "\nSharded scale-out (tree-next-limit, 1024 blocks per shard):\n";
  std::cout << "shards   wall ms   accesses/s   miss rate\n";
  std::cout << "------------------------------------------\n";
  for (const std::uint32_t shards : {1u, 2u, 4u}) {
    engine::ShardedConfig sc;
    sc.engine.cache_blocks = 1024;
    sc.engine.policy.kind = core::policy::PolicyKind::kTreeNextLimit;
    sc.shards = shards;
    engine::ShardedEngine sharded(sc);
    const auto start = std::chrono::steady_clock::now();
    sharded.access_many(blocks);
    sharded.flush();
    const auto elapsed = std::chrono::duration<double, std::milli>(
        std::chrono::steady_clock::now() - start);
    const auto merged = sharded.merged_metrics();
    std::cout << "  " << shards << "      "
              << util::format_double(elapsed.count(), 1) << "      "
              << util::format_count(static_cast<std::uint64_t>(
                     static_cast<double>(merged.accesses) /
                     (elapsed.count() / 1000.0)))
              << "      " << util::format_percent(merged.miss_rate())
              << "\n";
  }

  // --- observability: scrape the sharded server like Prometheus would --
  // Same 4-shard configuration, this time with phase timers and the
  // per-shard event rings on, the way a production scrape endpoint and a
  // flight recorder would run.
  {
    engine::ShardedConfig sc;
    sc.engine.cache_blocks = 256;
    sc.engine.policy.kind = core::policy::PolicyKind::kTreeNextLimit;
    sc.engine.obs.phase_timers = true;
    sc.engine.obs.trace_capacity = 4096;
    sc.shards = 4;
    engine::ShardedEngine sharded(sc);
    sharded.access_many(blocks);
    sharded.flush();

    std::cout << "\nPrometheus exposition of the sharded run (merged view, "
              << sharded.stats().shards << " shards):\n\n";
    const obs::Label labels[] = {{"workload", workload.name()},
                                 {"policy", "tree-next-limit"}};
    obs::render_prometheus(std::cout, sharded.stats(), labels);

    const std::string trace_path = options.str("trace-json");
    if (!trace_path.empty()) {
      std::ofstream trace_out(trace_path);
      sharded.write_chrome_trace(trace_out);
      std::cout << "\n(chrome://tracing timeline of the last "
                << util::format_count(sharded.stats().trace_occupancy)
                << " events written to " << trace_path << ")\n";
    }
  }
  return 0;
}
