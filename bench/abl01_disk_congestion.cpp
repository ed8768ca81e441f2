// Ablation: the infinite-disk assumption (Section 6.3).
//
// The paper assumes "an infinite number of available disks and no wait
// time for disk accesses" and notes prefetching increases disk traffic
// (Figure 8, +180 % on snake).  Here the assumption is relaxed: requests
// queue on a finite disk array, and the table shows how much of the
// prefetching speedup survives contention — the cost the paper's model
// ignores, quantified.
#include <iostream>

#include "common.hpp"
#include "util/string_utils.hpp"
#include "util/table.hpp"

using namespace pfp;

int main(int argc, char** argv) {
  auto env = bench::parse_bench_args(
      argc, argv,
      "Ablation 1 — prefetching speedup vs disk-array size (snake)");

  const trace::Trace& snake =
      bench::load_workload(env, trace::Workload::kSnake);
  const std::vector<std::uint32_t> disk_counts = {1, 2, 4, 8, 16, 0};

  util::TextTable table({"disks", "policy", "miss rate", "sim time (s)",
                         "stall (s)", "queue delay (s)",
                         "speedup vs no-prefetch"});
  for (const std::uint32_t disks : disk_counts) {
    double baseline_elapsed = 0.0;
    for (const auto kind : {core::policy::PolicyKind::kNoPrefetch,
                            core::policy::PolicyKind::kNextLimit,
                            core::policy::PolicyKind::kTreeNextLimit}) {
      engine::EngineConfig config;
      config.cache_blocks = 1024;
      config.disks = disks;
      // I/O-bound regime: at the paper's T_cpu = 50 ms the CPU hides all
      // contention; 5 ms of compute per access makes the array the
      // bottleneck and exposes the assumption's cost.
      config.timing.t_cpu = 5.0;
      config.policy = bench::spec_of(kind);
      const auto r = sim::simulate(config, snake);
      if (kind == core::policy::PolicyKind::kNoPrefetch) {
        baseline_elapsed = r.metrics.elapsed_ms;
      }
      table.row({disks == 0 ? "inf" : std::to_string(disks), r.policy_name,
                 util::format_percent(r.metrics.miss_rate()),
                 util::format_double(r.metrics.elapsed_ms / 1000.0, 1),
                 util::format_double(r.metrics.stall_ms / 1000.0, 1),
                 util::format_double(
                     r.metrics.disk_queue_delay_ms / 1000.0, 1),
                 util::format_double(
                     baseline_elapsed / r.metrics.elapsed_ms, 2) + "x"});
    }
  }
  table.print(std::cout);
  std::cout << "\nPrefetch traffic queues behind demand traffic on small "
               "arrays: the miss-rate\nwin is unchanged (caching is "
               "time-independent) but the elapsed-time win shrinks\nas "
               "disks get scarce — the regime the paper's model excludes.\n";
  return 0;
}
