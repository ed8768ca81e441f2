// Engine <-> observability wiring: the published stats mirror the
// deterministic metrics, instrumentation never changes a decision, and
// the trace ring records what the engine did.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <vector>

#include "engine/prefetch_engine.hpp"
#include "obs/engine_obs.hpp"
#include "trace/trace.hpp"
#include "util/phase.hpp"
#include "util/prng.hpp"

namespace pfp::engine {
namespace {

using core::policy::PolicyKind;

EngineConfig tree_config(std::size_t blocks = 64) {
  EngineConfig c;
  c.cache_blocks = blocks;
  c.policy.kind = PolicyKind::kTreeNextLimit;
  return c;
}

trace::Trace random_trace(std::uint64_t seed, int length, int universe) {
  trace::Trace t("t");
  util::Xoshiro256 rng(seed);
  for (int i = 0; i < length; ++i) {
    t.append(rng.below(static_cast<std::uint64_t>(universe)));
  }
  return t;
}

void expect_stats_mirror_metrics(const PrefetchEngine& eng) {
  const auto stats = eng.stats();
  const auto& m = eng.metrics();
  EXPECT_EQ(stats.accesses, m.accesses);
  EXPECT_EQ(stats.demand_hits, m.demand_hits);
  EXPECT_EQ(stats.prefetch_hits, m.prefetch_hits);
  EXPECT_EQ(stats.misses, m.misses);
  EXPECT_EQ(stats.prefetches_issued, m.policy.prefetches_issued);
  EXPECT_EQ(stats.prefetch_ejections, m.policy.prefetch_ejections);
  EXPECT_EQ(stats.demand_ejections, m.policy.demand_ejections);
  EXPECT_EQ(stats.disk_requests, m.disk_requests);
  EXPECT_EQ(stats.resident_blocks, eng.buffer_cache().resident());
  EXPECT_EQ(stats.tree_nodes, m.policy.tree_nodes);
  EXPECT_EQ(stats.elapsed_virtual_us,
            static_cast<std::uint64_t>(m.elapsed_ms * 1000.0));
  EXPECT_TRUE(stats.consistent);
  EXPECT_EQ(stats.shards, 1u);
}

TEST(EngineObs, StatsMirrorDeterministicMetrics) {
  PrefetchEngine eng(tree_config());
  const auto t = random_trace(7, 10'000, 300);
  eng.access_many(t.blocks());
  expect_stats_mirror_metrics(eng);
}

TEST(EngineObs, InstrumentationNeverChangesDecisions) {
  // Phase timers and the event ring are write-only: a fully instrumented
  // engine must stay bit-identical to a bare one on the same stream.
  const auto t = random_trace(11, 10'000, 300);

  PrefetchEngine bare(tree_config());
  bare.access_many(t.blocks());

  EngineConfig instrumented_config = tree_config();
  instrumented_config.obs.phase_timers = true;
  instrumented_config.obs.trace_capacity = 1024;
  PrefetchEngine instrumented(instrumented_config);
  instrumented.access_many(t.blocks());

  EXPECT_EQ(instrumented.metrics().misses, bare.metrics().misses);
  EXPECT_EQ(instrumented.metrics().prefetch_hits,
            bare.metrics().prefetch_hits);
  EXPECT_EQ(instrumented.metrics().elapsed_ms, bare.metrics().elapsed_ms);
  EXPECT_EQ(instrumented.metrics().policy.prefetches_issued,
            bare.metrics().policy.prefetches_issued);
  EXPECT_EQ(instrumented.metrics().policy.prefetch_ejections,
            bare.metrics().policy.prefetch_ejections);
}

TEST(EngineObs, PhaseTimersCoverEveryAccess) {
  EngineConfig config = tree_config();
  config.obs.phase_timers = true;
  PrefetchEngine eng(config);
  eng.access_many(random_trace(3, 2'000, 100).blocks());

  const auto stats = eng.stats();
  const auto lookup = static_cast<std::size_t>(util::EnginePhase::kLookup);
  const auto issue = static_cast<std::size_t>(util::EnginePhase::kIssue);
  // Lookup and issue close exactly once per access; the other phases
  // fire on subsets (misses, policy internals).
  EXPECT_EQ(stats.phases.count[lookup], eng.metrics().accesses);
  EXPECT_EQ(stats.phases.count[issue], eng.metrics().accesses);
  EXPECT_EQ(
      stats.phases.count[static_cast<std::size_t>(
          util::EnginePhase::kEviction)],
      eng.metrics().misses);
}

TEST(EngineObs, PhaseTimersOffByDefault) {
  PrefetchEngine eng(tree_config());
  eng.access_many(random_trace(3, 500, 100).blocks());
  EXPECT_EQ(eng.stats().phases.total_count(), 0u);
  EXPECT_EQ(eng.stats().trace_capacity, 0u);
}

TEST(EngineObs, TraceRingRecordsTheRun) {
  EngineConfig config = tree_config();
  config.obs.trace_capacity = 256;
  PrefetchEngine eng(config);
  eng.access_many(random_trace(9, 2'000, 100).blocks());

  const auto stats = eng.stats();
  EXPECT_EQ(stats.trace_capacity, 256u);
  EXPECT_GE(stats.trace_recorded, eng.metrics().accesses);
  EXPECT_EQ(stats.trace_occupancy, 256u);  // long run fills the ring
  EXPECT_EQ(stats.trace_dropped, stats.trace_recorded - 256u);

  const auto events = eng.observability().ring().events();
  ASSERT_EQ(events.size(), 256u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].serial, events[i - 1].serial + 1);
    EXPECT_GE(events[i].ts_ms, events[i - 1].ts_ms);
  }

  std::ostringstream json;
  eng.write_chrome_trace(json);
  EXPECT_NE(json.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.str().find("\"ph\":\"X\""), std::string::npos);
}

TEST(EngineObs, RestoredEnginePublishesItsStats) {
  PrefetchEngine eng(tree_config());
  eng.access_many(random_trace(13, 5'000, 200).blocks());

  std::vector<std::uint8_t> blob;
  eng.snapshot(blob);
  PrefetchEngine resumed(tree_config());
  resumed.restore(blob);

  expect_stats_mirror_metrics(resumed);
  EXPECT_EQ(resumed.stats().accesses, eng.stats().accesses);
}

TEST(EngineObs, OversizedTraceCapacityRejected) {
  EngineConfig config = tree_config();
  config.obs.trace_capacity = (std::size_t{1} << 24) + 1;
  EXPECT_THROW(PrefetchEngine{config}, std::invalid_argument);
}

}  // namespace
}  // namespace pfp::engine
