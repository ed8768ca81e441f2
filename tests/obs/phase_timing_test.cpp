#include "obs/phase_timing.hpp"

#include <gtest/gtest.h>

#include "util/phase.hpp"

namespace pfp::obs {
namespace {

using util::EnginePhase;

TEST(PhaseTiming, DefaultIsEmpty) {
  PhaseTiming t;
  EXPECT_EQ(t.total_count(), 0u);
  EXPECT_DOUBLE_EQ(t.mean_ns(EnginePhase::kLookup), 0.0);
  EXPECT_EQ(t.histogram(EnginePhase::kLookup).total(), 0u);
}

TEST(PhaseTiming, SampleCopiesLiveCells) {
  util::PhaseCells cells;
  cells.assert_writer();  // the test thread is the unique writer
  cells.add(EnginePhase::kLookup, 0);     // bucket 0
  cells.add(EnginePhase::kLookup, 100);   // bit_width(100) == 7
  cells.add(EnginePhase::kIssue, 1);      // bucket 1

  const PhaseTiming t = PhaseTiming::sample(cells);
  const auto lookup = static_cast<std::size_t>(EnginePhase::kLookup);
  const auto issue = static_cast<std::size_t>(EnginePhase::kIssue);
  EXPECT_EQ(t.count[lookup], 2u);
  EXPECT_EQ(t.total_ns[lookup], 100u);
  EXPECT_EQ(t.buckets[lookup][0], 1u);
  EXPECT_EQ(t.buckets[lookup][7], 1u);
  EXPECT_EQ(t.count[issue], 1u);
  EXPECT_EQ(t.buckets[issue][1], 1u);
  EXPECT_EQ(t.total_count(), 3u);
  EXPECT_DOUBLE_EQ(t.mean_ns(EnginePhase::kLookup), 50.0);
}

TEST(PhaseTiming, OverlongSampleClampsToOverflowBucket) {
  util::PhaseCells cells;
  cells.assert_writer();
  // ~4.6e18 ns: bit_width is 63, beyond any realistic phase but the
  // clamp keeps it inside the fixed bucket array.
  cells.add(EnginePhase::kEviction, std::uint64_t{1} << 62);
  const PhaseTiming t = PhaseTiming::sample(cells);
  const auto p = static_cast<std::size_t>(EnginePhase::kEviction);
  EXPECT_EQ(t.buckets[p][util::kPhaseBucketCount - 1], 1u);
  EXPECT_EQ(t.count[p], 1u);
}

TEST(PhaseTiming, MergeSumsEveryCell) {
  util::PhaseCells a;
  util::PhaseCells b;
  a.assert_writer();
  b.assert_writer();
  a.add(EnginePhase::kEnumeration, 10);
  b.add(EnginePhase::kEnumeration, 20);
  b.add(EnginePhase::kCostBenefit, 5);

  PhaseTiming merged = PhaseTiming::sample(a);
  merged.merge(PhaseTiming::sample(b));
  const auto en = static_cast<std::size_t>(EnginePhase::kEnumeration);
  const auto cb = static_cast<std::size_t>(EnginePhase::kCostBenefit);
  EXPECT_EQ(merged.count[en], 2u);
  EXPECT_EQ(merged.total_ns[en], 30u);
  EXPECT_EQ(merged.count[cb], 1u);
  EXPECT_EQ(merged.total_count(), 3u);
}

TEST(PhaseTiming, HistogramRoundTripsBuckets) {
  util::PhaseCells cells;
  cells.assert_writer();
  cells.add(EnginePhase::kLookup, 5);  // [4, 7] -> log2 bucket 3
  cells.add(EnginePhase::kLookup, 6);
  const PhaseTiming t = PhaseTiming::sample(cells);
  const auto h = t.histogram(EnginePhase::kLookup);
  EXPECT_EQ(h.total(), 2u);
  EXPECT_EQ(h.bucket_count(3), 2u);
}

TEST(PhaseTiming, SummaryNamesSampledPhases) {
  util::PhaseCells cells;
  cells.assert_writer();
  cells.add(EnginePhase::kCostBenefit, 64);
  const auto text = PhaseTiming::sample(cells).summary();
  EXPECT_NE(text.find("cost_benefit"), std::string::npos);
  // Unsampled phases are omitted to keep logs tight.
  EXPECT_EQ(text.find("predictor_update"), std::string::npos);
}

TEST(PhaseStopwatch, ChargesElapsedToMarkedPhase) {
  util::PhaseCells cells;
  util::PhaseStopwatch clock;
  clock.arm(&cells);
  EXPECT_TRUE(clock.armed());
  clock.start();
  clock.mark(EnginePhase::kLookup);
  clock.mark(EnginePhase::kIssue);
  EXPECT_EQ(cells.count(static_cast<std::size_t>(EnginePhase::kLookup)), 1u);
  EXPECT_EQ(cells.count(static_cast<std::size_t>(EnginePhase::kIssue)), 1u);
}

TEST(PhaseStopwatch, DisarmedMarksAreNoOps) {
  util::PhaseStopwatch clock;
  EXPECT_FALSE(clock.armed());
  clock.start();
  clock.mark(EnginePhase::kLookup);  // must not crash
  util::phase_mark(nullptr, EnginePhase::kIssue);
  util::phase_mark(&clock, EnginePhase::kIssue);
}

}  // namespace
}  // namespace pfp::obs
