// Google-benchmark microbenchmarks of the performance-critical pieces:
// the LZ tree parse, candidate enumeration, delta-Markov prediction,
// cache operations, and whole-simulator throughput per policy.
#include <benchmark/benchmark.h>
#include <time.h>

#include <span>
#include <string>
#include <vector>

#include "cache/buffer_cache.hpp"
#include "cache/lru_cache.hpp"
#include "core/costben/equations.hpp"
#include "core/markov/markov_model.hpp"
#include "core/tree/enumerator.hpp"
#include "core/tree/prefetch_tree.hpp"
#include "engine/prefetch_engine.hpp"
#include "engine/sharded_engine.hpp"
#include "sim/simulator.hpp"
#include "trace/gen_cad.hpp"
#include "trace/workloads.hpp"
#include "util/prng.hpp"

namespace {

using namespace pfp;

const trace::Trace& cad_trace() {
  static const trace::Trace t = [] {
    trace::CadGenerator::Config config;
    config.references = 100'000;
    return trace::CadGenerator(config).generate();
  }();
  return t;
}

/// The limits the served tree and markov walks run under at the default
/// timing: the default PredictLimits cut at the period's payable depth
/// (BenefitTable::payable_depth; 1 at the paper's constants, for any s).
core::costben::PredictLimits served_limits() {
  core::costben::PredictLimits limits;
  std::vector<double> dtpf;
  limits.max_depth =
      core::costben::BenefitTable(core::costben::TimingParams{}, /*s=*/1.0,
                                  limits.max_depth, dtpf)
          .payable_depth();
  return limits;
}

void BM_TreeParse(benchmark::State& state) {
  const auto& t = cad_trace();
  for (auto _ : state) {
    core::tree::PrefetchTree tree;
    for (const auto& r : t) {
      benchmark::DoNotOptimize(tree.access(r.block));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(t.size()));
}
BENCHMARK(BM_TreeParse)->Unit(benchmark::kMillisecond);

void BM_TreeParseBounded(benchmark::State& state) {
  const auto& t = cad_trace();
  core::tree::TreeConfig config;
  config.max_nodes = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    core::tree::PrefetchTree tree(config);
    for (const auto& r : t) {
      benchmark::DoNotOptimize(tree.access(r.block));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(t.size()));
}
BENCHMARK(BM_TreeParseBounded)->Arg(4096)->Arg(32768)
    ->Unit(benchmark::kMillisecond);

void BM_EdgeLookup(benchmark::State& state) {
  const auto& t = cad_trace();
  core::tree::PrefetchTree tree;
  for (const auto& r : t) {
    tree.access(r.block);
  }
  util::Xoshiro256 rng(3);
  std::vector<trace::BlockId> probes;
  probes.reserve(4096);
  for (int i = 0; i < 4096; ++i) {
    probes.push_back(t[rng.below(t.size())].block);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tree.find_child(tree.root(), probes[i++ & 4095]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EdgeLookup);

void BM_EnumerateCandidates(benchmark::State& state) {
  const auto& t = cad_trace();
  core::tree::PrefetchTree tree;
  for (const auto& r : t) {
    tree.access(r.block);
  }
  const core::costben::PredictLimits limits = served_limits();
  // Walk the parse along the trace while enumerating, to sample realistic
  // positions rather than just the root.
  std::size_t i = 0;
  for (auto _ : state) {
    tree.access(t[i % t.size()].block);
    benchmark::DoNotOptimize(
        core::tree::enumerate_candidates(tree, tree.current(), limits));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EnumerateCandidates);

void BM_EnumerateCandidatesReuse(benchmark::State& state) {
  // Same walk as BM_EnumerateCandidates but through one reused
  // CandidateEnumerator, i.e. the policy hot path's allocation-free mode;
  // the gap between the two benchmarks is the one-shot setup cost.  Both
  // walk at the served payable depth.
  const auto& t = cad_trace();
  core::tree::PrefetchTree tree;
  for (const auto& r : t) {
    tree.access(r.block);
  }
  const core::costben::PredictLimits limits = served_limits();
  core::tree::CandidateEnumerator enumerator;
  std::size_t i = 0;
  for (auto _ : state) {
    tree.access(t[i % t.size()].block);
    benchmark::DoNotOptimize(
        enumerator.enumerate(tree, tree.current(), limits));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EnumerateCandidatesReuse);

void BM_MarkovPredict(benchmark::State& state) {
  // The markov policy's per-access predictor work on a model warmed on
  // the whole trace: one observe() to advance the parse position (so
  // every call predicts from a fresh, realistic context) and one
  // predict_into() under the limits the policy serves with (the default
  // ones cut at the payable depth), which yields the capped candidate set
  // unranked (the controller ranks what it prices positive).  Arg 0
  // replays the CAD trace, Arg 1 the snake trace (the served snake-ship
  // stream).
  static const trace::Trace snake =
      trace::make_workload(trace::Workload::kSnake, 100'000);
  const trace::Trace& t = state.range(0) == 0 ? cad_trace() : snake;
  core::markov::DeltaMarkov model;
  for (const auto& r : t) {
    model.observe(r.block);
  }
  const core::costben::PredictLimits limits = served_limits();
  std::vector<core::costben::PredictedBlock> out;
  std::size_t i = 0;
  for (auto _ : state) {
    model.observe(t[i % t.size()].block);
    out.clear();
    benchmark::DoNotOptimize(model.predict_into(limits, out));
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel(state.range(0) == 0 ? "cad" : "snake");
}
BENCHMARK(BM_MarkovPredict)->Arg(0)->Arg(1);

// The markov policy's whole access in process, the in-process form of
// servebench's markov connections: a PrefetchEngine warmed on 100K
// accesses of one trace seed, then access_many over another seed's
// stream in 256-block frames, one frame per iteration (items/s counts
// accesses).  Every phase runs: lookup, observe, prediction, pricing
// and ranking, issue, eviction.
void BM_MarkovAccess(benchmark::State& state, trace::Workload workload) {
  constexpr std::size_t kFrame = 256;
  const std::vector<trace::BlockId> warm =
      trace::make_workload(workload, 100'000, 100).blocks();
  const std::vector<trace::BlockId> timed =
      trace::make_workload(workload, 100'000, 1).blocks();
  engine::EngineConfig config;
  config.cache_blocks = 1024;
  config.policy.kind = core::policy::PolicyKind::kMarkov;
  engine::PrefetchEngine eng(config);
  eng.access_many(warm);
  const std::span<const trace::BlockId> stream(timed);
  std::size_t at = 0;
  for (auto _ : state) {
    if (at + kFrame > stream.size()) {
      at = 0;
    }
    benchmark::DoNotOptimize(eng.access_many(stream.subspan(at, kFrame)));
    at += kFrame;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kFrame));
}
BENCHMARK_CAPTURE(BM_MarkovAccess, cad, trace::Workload::kCad);
BENCHMARK_CAPTURE(BM_MarkovAccess, snake, trace::Workload::kSnake);

void BM_SnapshotRestore(benchmark::State& state) {
  // Full engine snapshot -> restore round trip over a trained tree: the
  // preorder serialization walk appends child runs straight out of the
  // arena into a byte buffer, and restore rebuilds the pre-sized SoA
  // planes node by node from a span over it.  items/s is
  // round trips; the label carries the snapshot size so regressions in
  // the wire format show up alongside throughput ones.
  const auto& t = cad_trace();
  engine::EngineConfig config;
  config.cache_blocks = 1024;
  config.policy.kind = core::policy::PolicyKind::kTreeNextLimit;
  engine::PrefetchEngine trained(config);
  trained.access_many(t.blocks());
  std::vector<std::uint8_t> bytes;
  trained.snapshot(bytes);
  std::vector<std::uint8_t> image;
  for (auto _ : state) {
    image.clear();
    trained.snapshot(image);
    engine::PrefetchEngine fresh(config);
    fresh.restore(image);
    benchmark::DoNotOptimize(fresh.stats());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
  state.SetLabel("snapshot_bytes=" + std::to_string(bytes.size()));
}
BENCHMARK(BM_SnapshotRestore)->Unit(benchmark::kMillisecond);

void BM_LruCacheAccess(benchmark::State& state) {
  cache::LruCache cache(static_cast<std::size_t>(state.range(0)));
  util::Xoshiro256 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(rng.below(100'000)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LruCacheAccess)->Arg(1024)->Arg(16384);

void BM_DemandCacheHitWithDepth(benchmark::State& state) {
  cache::BufferCache cache(1024);
  for (trace::BlockId b = 0; b < 1024; ++b) {
    cache.admit_demand(b);
  }
  util::Xoshiro256 rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(rng.below(1024)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DemandCacheHitWithDepth);

// Process CPU time in ns: every thread, so a sharded row's workers are
// charged, spinning or not.
double process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

// Reports process CPU per access as the "cpu_ns_per_access" counter.
// Co-tenant drift moves wall time far more than process CPU, and a
// sharded row's CPU cost reads directly against BM_AccessMany/1's.
void report_cpu_per_access(benchmark::State& state, double cpu_ns,
                           std::size_t accesses_per_iteration) {
  state.counters["cpu_ns_per_access"] =
      cpu_ns / (static_cast<double>(state.iterations()) *
                static_cast<double>(accesses_per_iteration));
}

void BM_SimulatorThroughput(benchmark::State& state) {
  const auto& t = cad_trace();
  const auto kind =
      static_cast<core::policy::PolicyKind>(state.range(0));
  const double cpu_start = process_cpu_ns();
  for (auto _ : state) {
    engine::EngineConfig config;
    config.cache_blocks = 1024;
    config.policy.kind = kind;
    benchmark::DoNotOptimize(sim::simulate(config, t));
  }
  report_cpu_per_access(state, process_cpu_ns() - cpu_start, t.size());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(t.size()));
  state.SetLabel(core::policy::kind_name(kind));
}
BENCHMARK(BM_SimulatorThroughput)
    ->Arg(static_cast<int>(core::policy::PolicyKind::kNoPrefetch))
    ->Arg(static_cast<int>(core::policy::PolicyKind::kNextLimit))
    ->Arg(static_cast<int>(core::policy::PolicyKind::kTree))
    ->Arg(static_cast<int>(core::policy::PolicyKind::kTreeNextLimit))
    ->Arg(static_cast<int>(core::policy::PolicyKind::kTreeLvc))
    ->Arg(static_cast<int>(core::policy::PolicyKind::kPerfectSelector))
    ->Arg(static_cast<int>(core::policy::PolicyKind::kTreeThreshold))
    ->Arg(static_cast<int>(core::policy::PolicyKind::kTreeChildren))
    ->Arg(static_cast<int>(core::policy::PolicyKind::kTreeAdaptive))
    ->Arg(static_cast<int>(core::policy::PolicyKind::kProbGraph))
    ->Arg(static_cast<int>(core::policy::PolicyKind::kMarkov))
    ->Arg(static_cast<int>(core::policy::PolicyKind::kAssoc))
    ->Unit(benchmark::kMillisecond);

// Single-engine access throughput at each observability level.  Arg(0)
// is the baseline (counters only — the always-on cost: one publish per
// access_many() call), Arg(1) adds the six phase timers (one
// steady_clock read per stage boundary), Arg(2) adds a 4096-event trace
// ring on top.  The items/s spread between the args IS the measured obs
// overhead quoted in docs/observability.md.
void BM_EngineObsOverhead(benchmark::State& state) {
  const auto& t = cad_trace();
  const auto level = state.range(0);
  const double cpu_start = process_cpu_ns();
  for (auto _ : state) {
    engine::EngineConfig config;
    config.cache_blocks = 1024;
    config.policy.kind = core::policy::PolicyKind::kTreeNextLimit;
    config.obs.phase_timers = level >= 1;
    config.obs.trace_capacity = level >= 2 ? 4096 : 0;
    engine::PrefetchEngine eng(config);
    eng.access_many(t.blocks());
    benchmark::DoNotOptimize(eng.metrics());
    benchmark::DoNotOptimize(eng.stats());
  }
  report_cpu_per_access(state, process_cpu_ns() - cpu_start, t.size());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(t.size()));
  state.SetLabel(level == 0 ? "counters"
                            : (level == 1 ? "counters+phases"
                                          : "counters+phases+trace"));
}
BENCHMARK(BM_EngineObsOverhead)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

const std::vector<trace::BlockId>& cad_blocks() {
  static const std::vector<trace::BlockId> blocks = [] {
    std::vector<trace::BlockId> out;
    out.reserve(cad_trace().size());
    for (const auto& record : cad_trace().records()) {
      out.push_back(record.block);
    }
    return out;
  }();
  return blocks;
}

// Shared config for the sharded-throughput family: the stream is dealt
// to the shards in 4096-reference runs, so each shard's predictor sees
// real traversal sequences and every run is one bulk ring transaction,
// with each shard provisioning its own full-size buffer pool, the
// scale-out-replicas shape ShardedConfig documents (cache_blocks is PER
// SHARD).
engine::ShardedConfig sharded_bench_config(std::uint32_t shards) {
  engine::ShardedConfig config;
  config.engine.cache_blocks = 1024;
  config.engine.policy.kind = core::policy::PolicyKind::kTreeNextLimit;
  config.shards = shards;
  config.run_length = 4096;
  // Deep rings decouple the producer from the workers: on a single-core
  // host a shallow ring forces a context switch every few thousand
  // references, and each switch between shard working sets evicts the
  // previous shard's tree/cache lines — measured as a ~25% aggregate
  // loss at 4096 slots.  At this depth each worker drains its backlog
  // in long uninterrupted stints, so the benchmark measures the state
  // machine and the hand-off, not scheduler churn.
  config.queue_capacity = 32768;
  return config;
}

// Aggregate throughput of the sharded engine: one producer handing the
// CAD trace to access_many() (run-sized slices copied straight into the
// shard rings), N worker threads popping batches and running the full
// per-access state machine through the engine's batched loop.  items/s
// is the aggregate access rate; compare Arg(N) against Arg(1) for the
// scale-out factor (docs/perf.md, "Sharding").  cpu_ns_per_access
// charges the workers too; Arg(1) against BM_AccessMany/1 is the
// hand-off's CPU overhead.
void BM_ShardedThroughput(benchmark::State& state) {
  const auto& blocks = cad_blocks();
  const auto shards = static_cast<std::uint32_t>(state.range(0));
  const double cpu_start = process_cpu_ns();
  for (auto _ : state) {
    engine::ShardedEngine eng(sharded_bench_config(shards));
    eng.access_many(blocks);
    eng.flush();
    benchmark::DoNotOptimize(eng.merged_metrics());
  }
  report_cpu_per_access(state, process_cpu_ns() - cpu_start, blocks.size());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(blocks.size()));
}
BENCHMARK(BM_ShardedThroughput)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Single-engine batched vs push-one: the same trace fed through
// access_many() one block per call (Arg 0) and in one span (Arg 1).  The
// spread is the per-call setup the batched loop hoists — context build
// and observability publish — with no queues involved;
// metrics are bit-identical by the access_many() contract.
void BM_AccessMany(benchmark::State& state) {
  const auto& blocks = cad_blocks();
  const bool batched = state.range(0) != 0;
  const double cpu_start = process_cpu_ns();
  for (auto _ : state) {
    engine::EngineConfig config;
    config.cache_blocks = 1024;
    config.policy.kind = core::policy::PolicyKind::kTreeNextLimit;
    engine::PrefetchEngine eng(config);
    if (batched) {
      benchmark::DoNotOptimize(eng.access_many(blocks));
    } else {
      for (const trace::BlockId& block : blocks) {
        benchmark::DoNotOptimize(eng.access_many({&block, 1}));
      }
    }
    benchmark::DoNotOptimize(eng.metrics());
  }
  report_cpu_per_access(state, process_cpu_ns() - cpu_start, blocks.size());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(blocks.size()));
  state.SetLabel(batched ? "access_many" : "push_one");
}
BENCHMARK(BM_AccessMany)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
