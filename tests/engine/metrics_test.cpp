#include "engine/metrics.hpp"

#include <gtest/gtest.h>

namespace pfp::engine {
namespace {

TEST(Metrics, ZeroSafeOnEmpty) {
  const Metrics m;
  EXPECT_DOUBLE_EQ(m.miss_rate(), 0.0);
  EXPECT_DOUBLE_EQ(m.prefetch_cache_hit_rate(), 0.0);
  EXPECT_DOUBLE_EQ(m.prefetches_per_access(), 0.0);
  EXPECT_DOUBLE_EQ(m.mean_prefetch_probability(), 0.0);
  EXPECT_DOUBLE_EQ(m.candidates_cached_fraction(), 0.0);
  EXPECT_DOUBLE_EQ(m.prediction_accuracy(), 0.0);
  EXPECT_DOUBLE_EQ(m.lvc_revisit_rate(), 0.0);
}

TEST(Metrics, MissRate) {
  Metrics m;
  m.accesses = 10;
  m.misses = 3;
  EXPECT_DOUBLE_EQ(m.miss_rate(), 0.3);
  EXPECT_DOUBLE_EQ(m.hit_rate(), 0.7);
}

TEST(Metrics, PrefetchCacheHitRate) {
  Metrics m;
  m.prefetch_hits = 30;
  m.policy.prefetches_issued = 40;
  EXPECT_DOUBLE_EQ(m.prefetch_cache_hit_rate(), 0.75);
}

TEST(Metrics, PrefetchesPerAccess) {
  Metrics m;
  m.accesses = 100;
  m.policy.prefetches_issued = 150;
  EXPECT_DOUBLE_EQ(m.prefetches_per_access(), 1.5);
}

TEST(Metrics, MeanPrefetchProbability) {
  Metrics m;
  m.policy.tree_prefetches_issued = 4;
  m.policy.sum_prefetch_probability = 2.0;
  EXPECT_DOUBLE_EQ(m.mean_prefetch_probability(), 0.5);
}

TEST(Metrics, CandidatesCachedFraction) {
  Metrics m;
  m.policy.candidates_chosen = 8;
  m.policy.candidates_already_cached = 6;
  EXPECT_DOUBLE_EQ(m.candidates_cached_fraction(), 0.75);
}

TEST(Metrics, PredictionMetrics) {
  Metrics m;
  m.accesses = 100;
  m.policy.predictable = 60;
  m.policy.predictable_uncached = 9;
  EXPECT_DOUBLE_EQ(m.prediction_accuracy(), 0.6);
  EXPECT_DOUBLE_EQ(m.predictable_uncached_fraction(), 0.15);
}

TEST(Metrics, LvcMetrics) {
  Metrics m;
  m.policy.lvc_opportunities = 50;
  m.policy.lvc_followed = 35;
  m.policy.lvc_checks = 40;
  m.policy.lvc_cached = 34;
  EXPECT_DOUBLE_EQ(m.lvc_revisit_rate(), 0.7);
  EXPECT_DOUBLE_EQ(m.lvc_cached_fraction(), 0.85);
}

TEST(Metrics, TrafficRatio) {
  Metrics m;
  m.misses = 100;
  m.policy.prefetches_issued = 180;
  EXPECT_DOUBLE_EQ(m.prefetch_traffic_ratio(), 1.8);
}

TEST(Metrics, SummaryMentionsKeyNumbers) {
  Metrics m;
  m.accesses = 1000;
  m.misses = 250;
  const auto text = m.summary();
  EXPECT_NE(text.find("miss rate"), std::string::npos);
  EXPECT_NE(text.find("25.00%"), std::string::npos);
  EXPECT_NE(text.find("1,000"), std::string::npos);
}

}  // namespace
}  // namespace pfp::engine
