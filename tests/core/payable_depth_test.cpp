// The payable depth D of a period's BenefitTable: the deepest d whose
// Eq. 2 saving still grows.  The tree and delta-chain walks stop at D
// because Eq. 1 prices everything deeper <= 0; the association family,
// priced as a single offer, keeps its whole walk.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/costben/equations.hpp"
#include "core/policy/assoc_policy.hpp"
#include "core/policy/cost_benefit.hpp"
#include "policy_harness.hpp"

namespace pfp::core::costben {
namespace {

// Fig. 11's T_cpu axis (ms) and three prefetch rates around it.
constexpr double kTcpuGrid[] = {2, 5, 10, 20, 50, 160, 640};
constexpr double kRateGrid[] = {0.0, 0.5, 2.0};

TEST(PayableDepth, EqualsPrefetchHorizonOverFig11Grid) {
  std::vector<double> storage;
  for (const double t_cpu : kTcpuGrid) {
    for (const double s : kRateGrid) {
      SCOPED_TRACE(::testing::Message() << "T_cpu " << t_cpu << ", s " << s);
      TimingParams t;
      t.t_cpu = t_cpu;
      const std::uint32_t horizon = prefetch_horizon(t, s);
      // A table deep enough to hold the horizon finds it exactly ...
      EXPECT_EQ(BenefitTable(t, s, 64, storage).payable_depth(), horizon);
      // ... and the default walk limit caps it.
      const std::uint32_t max_depth = PredictLimits{}.max_depth;
      EXPECT_EQ(BenefitTable(t, s, max_depth, storage).payable_depth(),
                std::min(horizon, max_depth));
    }
  }
}

TEST(PayableDepth, IsOneAtThePaperConstants) {
  std::vector<double> storage;
  for (const double s : {0.0, 1.0, 4.0, 16.0}) {
    EXPECT_EQ(BenefitTable(TimingParams{}, s, 8, storage).payable_depth(), 1u)
        << "s " << s;
  }
}

TEST(PayableDepth, SavingIsFlatPastIt) {
  std::vector<double> storage;
  for (const double t_cpu : kTcpuGrid) {
    for (const double s : kRateGrid) {
      TimingParams t;
      t.t_cpu = t_cpu;
      const BenefitTable table(t, s, 64, storage);
      const std::uint32_t d_pay = table.payable_depth();
      EXPECT_GT(table.dtpf(d_pay), table.dtpf(d_pay - 1));
      for (std::uint32_t d = d_pay + 1; d <= 64; ++d) {
        EXPECT_EQ(table.dtpf(d), table.dtpf(d_pay))
            << "T_cpu " << t_cpu << ", s " << s << ", d " << d;
      }
    }
  }
}

TEST(PayableDepth, NothingDeeperPricesPositive) {
  // p_b <= p_x along every chain; sweep both, including p_b == p_x and
  // products that round.
  std::vector<double> storage;
  constexpr double kParents[] = {1.0, 0.9, 0.5, 0.37, 0.1, 0.013, 0.002};
  constexpr double kSteps[] = {1.0, 0.999, 0.75, 0.5, 1.0 / 3.0, 0.01};
  for (const double t_cpu : kTcpuGrid) {
    for (const double s : kRateGrid) {
      TimingParams t;
      t.t_cpu = t_cpu;
      const BenefitTable table(t, s, 16, storage);
      for (std::uint32_t d = table.payable_depth() + 1; d <= 16; ++d) {
        for (const double p_x : kParents) {
          for (const double step : kSteps) {
            const double p_b = p_x * step;
            EXPECT_LE(table(p_b, p_x, d), 0.0)
                << "T_cpu " << t_cpu << ", s " << s << ", d " << d
                << ", p_b " << p_b << ", p_x " << p_x;
          }
        }
      }
    }
  }
}

TEST(PayableDepth, EmptyTableHasNone) {
  std::vector<double> storage;
  EXPECT_EQ(BenefitTable(TimingParams{}, 1.0, 0, storage).payable_depth(), 0u);
}

}  // namespace
}  // namespace pfp::core::costben

namespace pfp::core::policy {
namespace {

TEST(PayableDepth, SingleOfferPricesPositivePastIt) {
  std::vector<double> storage;
  const costben::BenefitTable table(costben::TimingParams{}, 1.0, 8, storage);
  ASSERT_EQ(table.payable_depth(), 1u);
  // Association candidates follow the parentless convention: p_x = p_b
  // deeper than 1.
  const costben::PredictedBlock deep[] = {{7, 0.5, 0.5, 3}, {9, 0.2, 0.2, 8}};
  CostBenefitKnobs knobs;
  knobs.single_offer = true;
  std::vector<std::pair<double, std::size_t>> order;
  price_and_order(deep, knobs, table, order);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0].second, 0u);
  // Priced as chained candidates they would both be dropped.
  knobs.single_offer = false;
  price_and_order(deep, knobs, table, order);
  EXPECT_TRUE(order.empty());
}

TEST(PayableDepth, AssocWalkIsNotCut) {
  // Block kSource is always followed, three accesses later, by kPartner;
  // the fillers never repeat, so the miner's only supported association
  // is (kSource -> kPartner, gap 3).  At the paper's constants D = 1, yet
  // the policy must still issue the partner at its mined depth.
  constexpr BlockId kSource = 1;
  constexpr BlockId kPartner = 2;
  testing::Harness h(64);
  AssocCostBenefit policy;
  BlockId filler = 1'000;
  std::vector<BlockId> stream;
  for (int round = 0; round < 6; ++round) {
    stream.push_back(kSource);
    stream.push_back(filler++);
    stream.push_back(filler++);
    stream.push_back(kPartner);
    for (int i = 0; i < 6; ++i) {
      stream.push_back(filler++);
    }
  }
  for (const BlockId b : stream) {
    policy.on_access(b, AccessOutcome::kMiss, h.ctx);
  }
  const auto entries = h.cache.prefetch().entries();
  const auto it = std::find_if(entries.begin(), entries.end(),
                               [](const auto& e) { return e.block == kPartner; });
  ASSERT_NE(it, entries.end()) << "the partner was never prefetched";
  std::vector<double> storage;
  EXPECT_GT(it->depth,
            costben::BenefitTable(h.timing, h.estimators.s(), 8, storage)
                .payable_depth());
  EXPECT_EQ(it->depth, 3u);
}

}  // namespace
}  // namespace pfp::core::policy
