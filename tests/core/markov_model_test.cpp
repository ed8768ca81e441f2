#include "core/markov/markov_model.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace pfp::core::markov {
namespace {

using costben::PredictedBlock;

DeltaMarkov load(std::span<const std::uint8_t> image,
                 MarkovConfig config) {
  util::ByteReader in(image);
  return DeltaMarkov::deserialize(in, config);
}

std::vector<PredictedBlock> predict(const DeltaMarkov& model,
                                    costben::PredictLimits limits = {}) {
  std::vector<PredictedBlock> out;
  model.predict_into(limits, out);
  return out;
}

TEST(DeltaMarkov, EmptyModelPredictsNothing) {
  DeltaMarkov model;
  EXPECT_TRUE(predict(model).empty());
  model.observe(10);
  model.observe(11);  // one delta exists, but no transition yet
  EXPECT_TRUE(predict(model).empty());
  EXPECT_EQ(model.row_count(), 0u);
}

TEST(DeltaMarkov, LearnsAStrideAsASingleRow) {
  DeltaMarkov model;
  for (trace::BlockId b = 0; b <= 40; b += 4) {
    model.observe(b);
  }
  // One context (+4) with one successor (+4), certain.
  EXPECT_EQ(model.row_count(), 1u);
  EXPECT_EQ(model.transition_count(), 1u);

  const auto out = predict(model);
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out[0].block, 44u);
  EXPECT_DOUBLE_EQ(out[0].probability, 1.0);
  EXPECT_DOUBLE_EQ(out[0].parent_probability, 1.0);
  EXPECT_EQ(out[0].depth, 1u);
}

TEST(DeltaMarkov, ChainsExtendWithMultipliedProbabilities) {
  DeltaMarkov model;
  for (trace::BlockId b = 0; b <= 400; b += 4) {
    model.observe(b);
  }
  costben::PredictLimits limits;
  limits.max_depth = 3;
  const auto out = predict(model, limits);
  ASSERT_EQ(out.size(), 3u);
  // A pure stride is certain at every depth; the deeper candidate's
  // parent probability is the previous chain element's probability.
  for (std::uint32_t d = 1; d <= 3; ++d) {
    EXPECT_EQ(out[d - 1].depth, d);
    EXPECT_DOUBLE_EQ(out[d - 1].probability, 1.0);
    EXPECT_EQ(out[d - 1].block, 400u + 4u * d);
  }
}

TEST(DeltaMarkov, SplitsProbabilityAcrossCompetingSuccessors) {
  DeltaMarkov model;
  // Departures from context +1 in this sequence: +1 twice, +8 twice,
  // +10 once (five total).
  const trace::BlockId seq[] = {0, 1, 2, 10, 11, 12, 20, 21, 31};
  for (const trace::BlockId b : seq) {
    model.observe(b);
  }
  // Last delta is +10; steer the parse position back onto context +1.
  model.observe(32);  // delta +1 -> context is now +1
  costben::PredictLimits limits;
  limits.max_depth = 1;
  limits.min_probability = 0.0;
  const auto out = predict(model, limits);
  ASSERT_EQ(out.size(), 3u);
  // Equal probabilities tie-break by ascending block.
  EXPECT_EQ(out[0].block, 33u);  // +1
  EXPECT_NEAR(out[0].probability, 2.0 / 5.0, 1e-12);
  EXPECT_EQ(out[1].block, 40u);  // +8
  EXPECT_NEAR(out[1].probability, 2.0 / 5.0, 1e-12);
  EXPECT_EQ(out[2].block, 42u);  // +10
  EXPECT_NEAR(out[2].probability, 1.0 / 5.0, 1e-12);
}

TEST(DeltaMarkov, MinProbabilityCutsTheTail) {
  DeltaMarkov model;
  const trace::BlockId seq[] = {0, 1, 2, 10, 11, 12, 20, 21, 31};
  for (const trace::BlockId b : seq) {
    model.observe(b);
  }
  model.observe(32);
  costben::PredictLimits limits;
  limits.max_depth = 1;
  limits.min_probability = 0.3;  // keeps the two 2/5ths, cuts the 1/5th
  const auto out = predict(model, limits);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].block, 33u);
  EXPECT_EQ(out[1].block, 40u);
}

TEST(DeltaMarkov, DeduplicatesConvergingChains) {
  DeltaMarkov model;
  for (trace::BlockId b = 0; b <= 400; b += 4) {
    model.observe(b);
  }
  const auto out = predict(model);
  for (std::size_t i = 0; i < out.size(); ++i) {
    for (std::size_t j = i + 1; j < out.size(); ++j) {
      EXPECT_NE(out[i].block, out[j].block);
    }
  }
}

TEST(DeltaMarkov, NeverPredictsNegativeBlocks) {
  DeltaMarkov model;
  // Learn a -100 stride near the origin: candidates would go negative.
  for (int i = 0; i < 6; ++i) {
    model.observe(static_cast<trace::BlockId>(500 - i * 100));
  }
  costben::PredictLimits limits;
  limits.max_depth = 8;
  const auto out = predict(model, limits);
  for (const PredictedBlock& c : out) {
    EXPECT_LE(c.block, 500u);  // and implicitly >= 0 by type
  }
}

TEST(DeltaMarkov, BlocksFarApartKeepTheDeltaArithmeticDefined) {
  // Block ids are arbitrary u64s.  Ids 2^63 apart must neither overflow
  // the delta (UBSan builds abort on that) nor predict past either end
  // of the address space, and a stride that wraps past the top is
  // learned modulo 2^64.
  constexpr trace::BlockId kHalf = trace::BlockId{1} << 63;
  constexpr trace::BlockId kTop = ~trace::BlockId{0};
  costben::PredictLimits limits;
  limits.max_depth = 8;

  DeltaMarkov half;
  for (int i = 0; i < 9; ++i) {
    half.observe(i % 2 == 0 ? 0 : kHalf);
    for (const PredictedBlock& c : predict(half, limits)) {
      EXPECT_TRUE(c.block == 0 || c.block == kHalf) << c.block;
    }
  }

  DeltaMarkov wrap;
  for (int i = 0; i < 9; ++i) {
    wrap.observe(i % 2 == 0 ? kTop : 0);
  }
  const auto out = predict(wrap, limits);  // last access: kTop
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.front().block, 0u);
  EXPECT_DOUBLE_EQ(out.front().probability, 1.0);
}

TEST(DeltaMarkov, RowWidthDisplacesTheWeakestSuccessor) {
  MarkovConfig config;
  config.row_width = 2;
  DeltaMarkov model(config);
  // Context +1 followed by +2 (x3), +3 (x2), then +4 once: the row holds
  // only the two strongest.
  const trace::BlockId seq[] = {0,  1,  3,  10, 11, 13, 20, 21, 23,
                                30, 31, 34, 40, 41, 44, 50, 51, 55};
  for (const trace::BlockId b : seq) {
    model.observe(b);
  }
  model.observe(56);  // context back to +1
  costben::PredictLimits limits;
  limits.max_depth = 1;
  limits.min_probability = 0.0;
  const auto out = predict(model, limits);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].block, 58u);  // +2, the strongest
}

TEST(DeltaMarkov, ContextCountIsLruBounded) {
  MarkovConfig config;
  config.max_contexts = 4;
  DeltaMarkov model(config);
  // Alternate deltas (1, k) for many distinct k: every (1 -> k) and
  // (k -> 1) pair mints new context rows.
  trace::BlockId b = 1000000;
  for (int k = 2; k < 40; ++k) {
    model.observe(b += 1);
    model.observe(b += static_cast<trace::BlockId>(k));
  }
  EXPECT_LE(model.row_count(), 4u);
  model.audit();
}

TEST(DeltaMarkov, DecayHalvesSaturatedRows) {
  MarkovConfig config;
  config.max_count = 4;
  DeltaMarkov model(config);
  for (trace::BlockId b = 0; b < 400; b += 4) {
    model.observe(b);
  }
  // The (+4 -> +4) count keeps saturating and halving, never reaching
  // max_count; prediction still says "certain".
  const auto out = predict(model);
  ASSERT_FALSE(out.empty());
  EXPECT_DOUBLE_EQ(out[0].probability, 1.0);
  model.audit();
}

TEST(DeltaMarkov, MemoryAccountingIsNonTrivial) {
  DeltaMarkov model;
  for (trace::BlockId b = 0; b <= 40; b += 4) {
    model.observe(b);
  }
  EXPECT_GT(model.actual_memory_bytes(), 0u);
}

TEST(DeltaMarkov, MemoryAccountingCountsTheModelNotPredictionStaging) {
  DeltaMarkov model;
  for (trace::BlockId b = 0; b < 2'000; ++b) {
    model.observe((b * 7) % 97 + (b % 5 == 0 ? 300 : 0));
  }
  const std::size_t trained = model.actual_memory_bytes();
  std::vector<PredictedBlock> out;
  costben::PredictLimits wide;
  wide.min_probability = 0.0;
  wide.max_candidates = 500;
  model.predict_into(wide, out);
  EXPECT_FALSE(out.empty());
  EXPECT_EQ(model.actual_memory_bytes(), trained);

  // A restored model reports what the model that wrote it reported.
  std::vector<std::uint8_t> stream;
  model.serialize(stream);
  EXPECT_EQ(load(stream, model.config()).actual_memory_bytes(), trained);
}

TEST(DeltaMarkovSerialize, RoundTripPreservesPredictions) {
  DeltaMarkov model;
  const trace::BlockId seq[] = {0, 1, 2, 10, 11, 12, 20, 21, 31, 32, 33};
  for (const trace::BlockId b : seq) {
    model.observe(b);
  }
  std::vector<std::uint8_t> stream;
  model.serialize(stream);
  DeltaMarkov restored = load(stream, model.config());

  EXPECT_EQ(restored.row_count(), model.row_count());
  EXPECT_EQ(restored.transition_count(), model.transition_count());
  restored.audit();

  // The parse position is transient (not serialized), so prime the
  // restored model onto context +1 — the first delta after a restore has
  // no predecessor and therefore updates no counts — and check the
  // trained row survived verbatim: {+1: 3, +8: 2, +10: 1} of 6.
  restored.observe(100);
  restored.observe(101);
  costben::PredictLimits limits;
  limits.max_depth = 1;
  limits.min_probability = 0.0;
  std::vector<PredictedBlock> out;
  restored.predict_into(limits, out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].block, 102u);
  EXPECT_NEAR(out[0].probability, 3.0 / 6.0, 1e-12);
  EXPECT_EQ(out[1].block, 109u);
  EXPECT_NEAR(out[1].probability, 2.0 / 6.0, 1e-12);
  EXPECT_EQ(out[2].block, 111u);
  EXPECT_NEAR(out[2].probability, 1.0 / 6.0, 1e-12);
}

TEST(DeltaMarkovSerialize, RoundTripIsByteStable) {
  DeltaMarkov model;
  for (trace::BlockId b = 0; b < 100; b += 3) {
    model.observe(b);
    model.observe(b + 1);
  }
  std::vector<std::uint8_t> first;
  model.serialize(first);
  DeltaMarkov restored = load(first, model.config());
  std::vector<std::uint8_t> second;
  restored.serialize(second);
  EXPECT_EQ(first, second);
}

TEST(DeltaMarkovSerialize, RejectsBadMagic) {
  const std::string junk = "XXXXjunk";
  const std::vector<std::uint8_t> stream(junk.begin(), junk.end());
  EXPECT_THROW(load(stream, MarkovConfig{}),
               std::runtime_error);
}

TEST(DeltaMarkovSerialize, RejectsTruncatedStream) {
  DeltaMarkov model;
  for (trace::BlockId b = 0; b <= 40; b += 4) {
    model.observe(b);
  }
  std::vector<std::uint8_t> stream;
  model.serialize(stream);
  const std::vector<std::uint8_t>& bytes = stream;
  for (std::size_t cut = 4; cut < bytes.size(); cut += 7) {
    const std::span<const std::uint8_t> truncated(bytes.data(), cut);
    EXPECT_THROW(load(truncated, model.config()),
                 std::runtime_error);
  }
}

TEST(DeltaMarkovSerialize, RejectsRowsBeyondTheConfiguredBounds) {
  DeltaMarkov wide;  // default bounds
  for (trace::BlockId b = 0; b < 60; ++b) {
    wide.observe(b * b);  // quadratic: every delta is new
  }
  std::vector<std::uint8_t> stream;
  wide.serialize(stream);
  MarkovConfig tiny;
  tiny.max_contexts = 2;
  EXPECT_THROW(load(stream, tiny), std::runtime_error);
}

}  // namespace
}  // namespace pfp::core::markov
