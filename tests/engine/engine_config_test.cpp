#include "engine/config.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "engine/prefetch_engine.hpp"

namespace pfp::engine {
namespace {

using core::policy::PolicyKind;

EngineConfig good_config() {
  EngineConfig c;
  c.cache_blocks = 64;
  c.policy.kind = PolicyKind::kTreeNextLimit;
  return c;
}

TEST(EngineConfigValidate, DefaultsAreValid) {
  EXPECT_NO_THROW(validate(EngineConfig{}));
  EXPECT_NO_THROW(validate(good_config()));
}

TEST(EngineConfigValidate, RejectsEmptyCache) {
  EngineConfig c = good_config();
  c.cache_blocks = 0;
  EXPECT_THROW(validate(c), std::invalid_argument);
}

TEST(EngineConfigValidate, RejectsNonPositiveHitTime) {
  EngineConfig c = good_config();
  c.timing.t_hit = 0.0;
  EXPECT_THROW(validate(c), std::invalid_argument);
  c.timing.t_hit = -0.243;
  EXPECT_THROW(validate(c), std::invalid_argument);
}

TEST(EngineConfigValidate, RejectsNonPositiveDriverTime) {
  EngineConfig c = good_config();
  c.timing.t_driver = 0.0;
  EXPECT_THROW(validate(c), std::invalid_argument);
}

TEST(EngineConfigValidate, RejectsNonPositiveDiskTime) {
  EngineConfig c = good_config();
  c.timing.t_disk = -15.0;
  EXPECT_THROW(validate(c), std::invalid_argument);
}

TEST(EngineConfigValidate, RejectsNonPositiveCpuTime) {
  EngineConfig c = good_config();
  c.timing.t_cpu = 0.0;
  EXPECT_THROW(validate(c), std::invalid_argument);
}

TEST(EngineConfigValidate, RejectsNanTiming) {
  EngineConfig c = good_config();
  c.timing.t_disk = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(validate(c), std::invalid_argument);
}

TEST(EngineConfigValidate, RejectsOblQuotaOutsideUnitInterval) {
  EngineConfig c = good_config();
  c.policy.obl_quota = -0.1;
  EXPECT_THROW(validate(c), std::invalid_argument);
  c.policy.obl_quota = 1.5;
  EXPECT_THROW(validate(c), std::invalid_argument);
}

TEST(EngineConfigValidate, RejectsThresholdOutsideUnitInterval) {
  EngineConfig c = good_config();
  c.policy.threshold = 2.0;
  EXPECT_THROW(validate(c), std::invalid_argument);
}

TEST(EngineConfigValidate, RejectsGraphMinProbabilityOutsideUnitInterval) {
  EngineConfig c = good_config();
  c.policy.graph.min_probability = -0.5;
  EXPECT_THROW(validate(c), std::invalid_argument);
}

TEST(EngineConfigValidate, RejectsZeroChildren) {
  EngineConfig c = good_config();
  c.policy.children = 0;
  EXPECT_THROW(validate(c), std::invalid_argument);
}

TEST(EngineConfigValidate, RejectsZeroPrefetchBudget) {
  EngineConfig c = good_config();
  c.policy.controller.max_prefetches_per_period = 0;
  EXPECT_THROW(validate(c), std::invalid_argument);
}

TEST(EngineConfigValidate, EngineConstructorValidates) {
  EngineConfig c = good_config();
  c.cache_blocks = 0;
  EXPECT_THROW(PrefetchEngine{c}, std::invalid_argument);
  c = good_config();
  c.timing.t_cpu = -1.0;
  EXPECT_THROW(PrefetchEngine{c}, std::invalid_argument);
}

}  // namespace
}  // namespace pfp::engine
