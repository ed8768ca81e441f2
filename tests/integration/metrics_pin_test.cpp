// Pins exact simulation results against golden values recorded from the
// std-container implementation (before flat_map / small_vector / reusable
// enumeration landed).  The hot-path containers are used strictly as
// sets/maps — never as ordered collections — so swapping their internals
// must not move a single counter.  Any drift here means an optimization
// changed simulation SEMANTICS, not just speed, and is a bug even if the
// new numbers look plausible.
//
// Regenerating (only after an intentional semantic change): run
// ./build/examples/pin_goldens, which replays every (workload, policy)
// pair below at 30'000 references, seed 7, 512 cache blocks, default
// timing, and prints rows in exactly this format (counters exact,
// doubles at max_digits10); paste them over kGolden and explain the
// drift in the commit message.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/policy/factory.hpp"
#include "sim/simulator.hpp"
#include "trace/workloads.hpp"

namespace pfp::sim {
namespace {

struct Golden {
  trace::Workload workload;
  core::policy::PolicyKind kind;
  std::uint64_t demand_hits;
  std::uint64_t prefetch_hits;
  std::uint64_t misses;
  double stall_ms;
  double elapsed_ms;
};

constexpr std::uint64_t kReferences = 30'000;
constexpr std::uint64_t kSeed = 7;
constexpr std::size_t kCacheBlocks = 512;

const Golden kGolden[] = {
    {trace::Workload::kCad, core::policy::PolicyKind::kNoPrefetch,
     8135u, 0u, 21865u, 327975, 1847946.7000008877},
    {trace::Workload::kCad, core::policy::PolicyKind::kNextLimit,
     7868u, 0u, 22132u, 331980, 1864943.1200013915},
    {trace::Workload::kCad, core::policy::PolicyKind::kTree,
     4045u, 9119u, 16836u, 252540, 1775191.880000907},
    {trace::Workload::kCad, core::policy::PolicyKind::kTreeNextLimit,
     3935u, 9194u, 16871u, 253065, 1790877.5000007523},
    {trace::Workload::kCad, core::policy::PolicyKind::kTreeLvc,
     3603u, 9438u, 16959u, 254385, 1778053.6200010197},
    {trace::Workload::kCad, core::policy::PolicyKind::kTreeThreshold,
     8134u, 5224u, 16642u, 249630, 1773151.8800008276},
    {trace::Workload::kCad, core::policy::PolicyKind::kTreeChildren,
     8134u, 5268u, 16598u, 248970, 1771611.4400008137},
    {trace::Workload::kCad, core::policy::PolicyKind::kProbGraph,
     8134u, 13534u, 8332u, 124979.99999999997, 1647739.7600007725},
    {trace::Workload::kCad, core::policy::PolicyKind::kPerfectSelector,
     8135u, 11663u, 10202u, 153030, 1673001.7000007906},
    {trace::Workload::kCad, core::policy::PolicyKind::kTreeAdaptive,
     4045u, 9119u, 16836u, 252540, 1775191.880000907},
    {trace::Workload::kCad, core::policy::PolicyKind::kMarkov,
     5070u, 17420u, 7510u, 112650, 1634659.820000689},
    {trace::Workload::kCad, core::policy::PolicyKind::kAssoc,
     4987u, 16360u, 8653u, 129795, 1652095.9800006372},
    {trace::Workload::kSitar, core::policy::PolicyKind::kNoPrefetch,
     16665u, 0u, 13335u, 200025, 1715049.3000006385},
    {trace::Workload::kSitar, core::policy::PolicyKind::kNextLimit,
     16012u, 12983u, 1005u, 15075, 1530945.5200005798},
    {trace::Workload::kSitar, core::policy::PolicyKind::kTree,
     11432u, 6932u, 11636u, 174540, 1692868.560000794},
    {trace::Workload::kSitar, core::policy::PolicyKind::kTreeNextLimit,
     10112u, 18996u, 892u, 13380, 1532879.5800006695},
    {trace::Workload::kSitar, core::policy::PolicyKind::kTreeLvc,
     11228u, 7113u, 11659u, 174885, 1693342.9000008013},
    {trace::Workload::kSitar, core::policy::PolicyKind::kTreeThreshold,
     16664u, 2018u, 11318u, 169769.99999999994, 1686752.9600006524},
    {trace::Workload::kSitar, core::policy::PolicyKind::kTreeChildren,
     16664u, 1997u, 11339u, 170085, 1687875.9000006858},
    {trace::Workload::kSitar, core::policy::PolicyKind::kProbGraph,
     16665u, 5886u, 7449u, 111735, 1627437.3200006019},
    {trace::Workload::kSitar, core::policy::PolicyKind::kPerfectSelector,
     16665u, 4536u, 8799u, 131985, 1647009.3000006182},
    {trace::Workload::kSitar, core::policy::PolicyKind::kTreeAdaptive,
     11432u, 6932u, 11636u, 174540, 1692868.560000794},
    {trace::Workload::kSitar, core::policy::PolicyKind::kMarkov,
     12490u, 15170u, 2340u, 35100, 1552754.60000069},
    {trace::Workload::kSitar, core::policy::PolicyKind::kAssoc,
     16641u, 4434u, 8925u, 133875, 1648957.8800005689},
    {trace::Workload::kCello, core::policy::PolicyKind::kNoPrefetch,
     0u, 0u, 30000u, 450000, 1974690.0000011714},
    {trace::Workload::kCello, core::policy::PolicyKind::kNextLimit,
     0u, 9925u, 20075u, 301125, 1837279.8600014711},
    {trace::Workload::kCello, core::policy::PolicyKind::kTree,
     0u, 369u, 29631u, 444465, 1969636.4000012134},
    {trace::Workload::kCello, core::policy::PolicyKind::kTreeNextLimit,
     0u, 9478u, 20522u, 307830, 1844761.4800014023},
    {trace::Workload::kCello, core::policy::PolicyKind::kTreeLvc,
     0u, 366u, 29634u, 444510, 1970318.8200012879},
    {trace::Workload::kCello, core::policy::PolicyKind::kTreeThreshold,
     0u, 101u, 29899u, 448485, 1973924.9400012051},
    {trace::Workload::kCello, core::policy::PolicyKind::kTreeChildren,
     0u, 101u, 29899u, 448484.99999999988, 2012905.0000009078},
    {trace::Workload::kCello, core::policy::PolicyKind::kProbGraph,
     0u, 747u, 29253u, 438795, 1968629.0200011856},
    {trace::Workload::kCello, core::policy::PolicyKind::kPerfectSelector,
     0u, 4947u, 25053u, 375795, 1900485.0000011257},
    {trace::Workload::kCello, core::policy::PolicyKind::kTreeAdaptive,
     0u, 266u, 29734u, 446010, 1970999.2800011917},
    {trace::Workload::kCello, core::policy::PolicyKind::kMarkov,
     0u, 3531u, 26469u, 397034.99999999988, 1923372.780001228},
    {trace::Workload::kCello, core::policy::PolicyKind::kAssoc,
     0u, 567u, 29433u, 441495, 1966202.4000011473},
    {trace::Workload::kSnake, core::policy::PolicyKind::kNoPrefetch,
     1u, 0u, 29999u, 449985, 1974674.4200011713},
    {trace::Workload::kSnake, core::policy::PolicyKind::kNextLimit,
     0u, 27293u, 2707u, 40605, 1566717.7400007911},
    {trace::Workload::kSnake, core::policy::PolicyKind::kTree,
     0u, 3983u, 26017u, 390255, 1915570.2400010906},
    {trace::Workload::kSnake, core::policy::PolicyKind::kTreeNextLimit,
     0u, 27495u, 2505u, 37575, 1564296.1600007147},
    {trace::Workload::kSnake, core::policy::PolicyKind::kTreeLvc,
     0u, 3983u, 26017u, 390255, 1916865.9600012291},
    {trace::Workload::kSnake, core::policy::PolicyKind::kTreeThreshold,
     1u, 2086u, 27913u, 418694.99999999994, 1946415.5000011344},
    {trace::Workload::kSnake, core::policy::PolicyKind::kTreeChildren,
     1u, 2095u, 27904u, 418560.00000000012, 1970474.0400008687},
    {trace::Workload::kSnake, core::policy::PolicyKind::kProbGraph,
     1u, 7223u, 22776u, 341640, 1871225.2000010931},
    {trace::Workload::kSnake, core::policy::PolicyKind::kPerfectSelector,
     1u, 8397u, 21602u, 324030, 1848719.420001077},
    {trace::Workload::kSnake, core::policy::PolicyKind::kTreeAdaptive,
     0u, 3983u, 26017u, 390255, 1915570.2400010906},
    {trace::Workload::kSnake, core::policy::PolicyKind::kMarkov,
     0u, 21732u, 8268u, 124020, 1649011.6000008665},
    {trace::Workload::kSnake, core::policy::PolicyKind::kAssoc,
     0u, 6055u, 23945u, 359175.00000000006, 1883876.0200009751},
};

class MetricsPin : public ::testing::TestWithParam<Golden> {};

TEST_P(MetricsPin, ExactlyMatchesStdContainerBaseline) {
  const Golden& golden = GetParam();
  const trace::Trace t =
      trace::make_workload(golden.workload, kReferences, kSeed);
  engine::EngineConfig config;
  config.cache_blocks = kCacheBlocks;
  config.policy.kind = golden.kind;
  const Result r = simulate(config, t);
  EXPECT_EQ(r.metrics.demand_hits, golden.demand_hits);
  EXPECT_EQ(r.metrics.prefetch_hits, golden.prefetch_hits);
  EXPECT_EQ(r.metrics.misses, golden.misses);
  // Exact double comparison on purpose: the timing model is a deterministic
  // fold over per-access doubles, so any container-induced reordering of
  // simulation events shows up here even when the counters happen to agree.
  EXPECT_EQ(r.metrics.stall_ms, golden.stall_ms);
  EXPECT_EQ(r.metrics.elapsed_ms, golden.elapsed_ms);
}

std::string pin_name(const ::testing::TestParamInfo<Golden>& info) {
  std::string name = trace::workload_name(info.param.workload) + "_" +
                     core::policy::kind_name(info.param.kind);
  for (char& c : name) {
    if (c == '-') {
      c = '_';
    }
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(Policies, MetricsPin, ::testing::ValuesIn(kGolden),
                         pin_name);

}  // namespace
}  // namespace pfp::sim
