#include "core/assoc/association_miner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace pfp::core::assoc {
namespace {

using costben::PredictedBlock;

AssociationMiner load(std::span<const std::uint8_t> image,
                      AssocConfig config) {
  util::ByteReader in(image);
  return AssociationMiner::deserialize(in, config);
}

std::vector<PredictedBlock> predict(const AssociationMiner& miner,
                                    trace::BlockId block,
                                    costben::PredictLimits limits = {}) {
  std::vector<PredictedBlock> out;
  miner.predict_into(block, limits, out);
  return out;
}

AssocConfig small_config(std::uint32_t min_support = 2) {
  AssocConfig config;
  config.window = 16;
  config.lookahead = 4;
  config.min_support = min_support;
  return config;
}

TEST(AssociationMiner, EmptyMinerPredictsNothing) {
  AssociationMiner miner(small_config());
  EXPECT_TRUE(predict(miner, 7).empty());
  miner.observe(7);
  EXPECT_TRUE(predict(miner, 7).empty());  // window not yet closed
  EXPECT_EQ(miner.row_count(), 0u);
}

TEST(AssociationMiner, MinesForwardCoOccurrence) {
  AssociationMiner miner(small_config());
  // 100 is always followed by 200 within the lookahead, across three
  // repetitions with filler in between.
  const trace::BlockId seq[] = {100, 200, 1, 2, 3,   100, 200, 4, 5,
                                6,   100, 200, 7, 8, 9,   10,  11};
  for (const trace::BlockId b : seq) {
    miner.observe(b);
  }
  const auto out = predict(miner, 100);  // min_support 2
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out[0].block, 200u);
  EXPECT_DOUBLE_EQ(out[0].probability, 1.0);  // in every closed window
  EXPECT_EQ(out[0].depth, 1u);                // gap 1, immediately after
  EXPECT_DOUBLE_EQ(out[0].parent_probability, 1.0);  // depth-1 convention
}

TEST(AssociationMiner, SurvivesInterleavedTraffic) {
  AssociationMiner miner(small_config());
  // The pair (100 -> 200) always has one unrelated access between them —
  // a first-order model (prob-graph, delta-Markov) cannot see it, the
  // windowed miner can.
  trace::BlockId noise = 1000;
  for (int rep = 0; rep < 6; ++rep) {
    miner.observe(100);
    miner.observe(noise++);
    miner.observe(200);
    miner.observe(noise++);
    miner.observe(noise++);
  }
  costben::PredictLimits limits;
  limits.min_probability = 0.5;
  const auto out = predict(miner, 100, limits);
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out[0].block, 200u);
  EXPECT_EQ(out[0].depth, 2u);  // min gap 2
  // Deeper-than-one parentless candidates carry p as their own parent.
  EXPECT_DOUBLE_EQ(out[0].parent_probability, out[0].probability);
}

TEST(AssociationMiner, MinSupportFiltersSporadicNoise) {
  AssociationMiner strict(small_config(/*min_support=*/2));
  AssociationMiner lax(small_config(/*min_support=*/1));
  // (100 -> 200) co-occurs three times; (100 -> 300) only once.
  const trace::BlockId seq[] = {100, 200, 1,   100, 200, 2,
                                100, 200, 300, 3,   4,   5, 6, 7};
  for (const trace::BlockId b : seq) {
    strict.observe(b);
    lax.observe(b);
  }
  costben::PredictLimits limits;
  limits.min_probability = 0.0;
  const auto out = predict(strict, 100, limits);
  for (const PredictedBlock& c : out) {
    EXPECT_NE(c.block, 300u);
  }
  const auto all = predict(lax, 100, limits);
  bool saw_300 = false;
  for (const PredictedBlock& c : all) {
    saw_300 = saw_300 || c.block == 300u;
  }
  EXPECT_TRUE(saw_300);
}

TEST(AssociationMiner, CountsADistinctPartnerOncePerWindow) {
  AssociationMiner miner(small_config(/*min_support=*/1));
  // 200 appears twice inside 100's forward window: support must rise by
  // one per window, keeping probability a frequency (<= 1).
  for (int rep = 0; rep < 5; ++rep) {
    miner.observe(100);
    miner.observe(200);
    miner.observe(200);
    miner.observe(300 + static_cast<trace::BlockId>(rep));
    miner.observe(400 + static_cast<trace::BlockId>(rep));
  }
  costben::PredictLimits limits;
  limits.min_probability = 0.0;
  const auto out = predict(miner, 100, limits);
  ASSERT_FALSE(out.empty());
  for (const PredictedBlock& c : out) {
    EXPECT_LE(c.probability, 1.0);
  }
  miner.audit();
}

TEST(AssociationMiner, RowCountIsLruBounded) {
  AssocConfig config = small_config();
  config.max_rows = 8;
  AssociationMiner miner(config);
  for (trace::BlockId b = 0; b < 500; ++b) {
    miner.observe(b * 17);  // all distinct sources
  }
  EXPECT_LE(miner.row_count(), 8u);
  miner.audit();
}

TEST(AssociationMiner, AgingHalvesSupportsAndOccurrences) {
  AssocConfig config = small_config(/*min_support=*/1);
  config.age_threshold = 8;
  AssociationMiner miner(config);
  for (int rep = 0; rep < 50; ++rep) {
    miner.observe(100);
    miner.observe(200);
    miner.observe(1);
    miner.observe(2);
    miner.observe(3);
  }
  // Many agings later the association must still predict with full
  // confidence: supports and occurrences halve together.
  const auto out = predict(miner, 100);
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out[0].block, 200u);
  EXPECT_DOUBLE_EQ(out[0].probability, 1.0);
  miner.audit();
}

TEST(AssociationMiner, MemoryAccountingIsNonTrivial) {
  AssociationMiner miner(small_config());
  for (trace::BlockId b = 0; b < 50; ++b) {
    miner.observe(b % 10);
  }
  EXPECT_GT(miner.actual_memory_bytes(), 0u);
}

TEST(AssociationMinerSerialize, RoundTripPreservesPredictions) {
  AssociationMiner miner(small_config(/*min_support=*/1));
  const trace::BlockId seq[] = {100, 200, 1, 2, 3, 100, 200, 4,  5,
                                6,   100, 200, 7, 8, 9,  10, 11, 12};
  for (const trace::BlockId b : seq) {
    miner.observe(b);
  }
  std::vector<std::uint8_t> stream;
  miner.serialize(stream);
  AssociationMiner restored =
      load(stream, miner.config());
  EXPECT_EQ(restored.row_count(), miner.row_count());
  EXPECT_EQ(restored.association_count(), miner.association_count());
  restored.audit();

  costben::PredictLimits limits;
  limits.min_probability = 0.0;
  for (const trace::BlockId source : {100u, 200u, 1u, 7u}) {
    const auto a = predict(miner, source, limits);
    const auto b = predict(restored, source, limits);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].block, b[i].block);
      EXPECT_EQ(a[i].probability, b[i].probability);
      EXPECT_EQ(a[i].parent_probability, b[i].parent_probability);
      EXPECT_EQ(a[i].depth, b[i].depth);
    }
  }
}

TEST(AssociationMinerSerialize, RoundTripIsByteStable) {
  AssociationMiner miner(small_config());
  for (trace::BlockId b = 0; b < 200; ++b) {
    miner.observe(b % 23);
  }
  std::vector<std::uint8_t> first;
  miner.serialize(first);
  AssociationMiner restored =
      load(first, miner.config());
  std::vector<std::uint8_t> second;
  restored.serialize(second);
  EXPECT_EQ(first, second);
}

TEST(AssociationMinerSerialize, RejectsBadMagic) {
  const std::string junk = "NOPEnope";
  const std::vector<std::uint8_t> stream(junk.begin(), junk.end());
  EXPECT_THROW(load(stream, AssocConfig{}),
               std::runtime_error);
}

TEST(AssociationMinerSerialize, RejectsTruncatedStream) {
  AssociationMiner miner(small_config());
  for (trace::BlockId b = 0; b < 60; ++b) {
    miner.observe(b % 7);
  }
  std::vector<std::uint8_t> stream;
  miner.serialize(stream);
  const std::vector<std::uint8_t>& bytes = stream;
  for (std::size_t cut = 4; cut < bytes.size(); cut += 9) {
    const std::span<const std::uint8_t> truncated(bytes.data(), cut);
    EXPECT_THROW(load(truncated, miner.config()),
                 std::runtime_error);
  }
}

TEST(AssociationMinerSerialize, RejectsRowsBeyondTheConfiguredBounds) {
  AssociationMiner miner(small_config());
  for (trace::BlockId b = 0; b < 100; ++b) {
    miner.observe(b);
  }
  std::vector<std::uint8_t> stream;
  miner.serialize(stream);
  AssocConfig tiny = small_config();
  tiny.max_rows = 2;
  EXPECT_THROW(load(stream, tiny),
               std::runtime_error);
}

TEST(AssociationMinerSerialize, RejectsASelfAssociation) {
  AssociationMiner miner(small_config());
  const trace::BlockId seq[] = {100, 200, 1, 2, 3, 100, 200, 4, 5, 6, 7, 8};
  for (const trace::BlockId b : seq) {
    miner.observe(b);
  }
  std::vector<std::uint8_t> stream;
  miner.serialize(stream);
  // First row: source u64 after magic (4), version (2) and row count
  // (8); its first association's partner follows occurrences and size.
  constexpr std::size_t kSourceAt = 4 + 2 + 8;
  constexpr std::size_t kPartnerAt = kSourceAt + 8 + 4 + 4;
  ASSERT_GT(stream.size(), kPartnerAt + 8);
  std::copy_n(stream.begin() + kSourceAt, 8, stream.begin() + kPartnerAt);
  EXPECT_THROW(load(stream, miner.config()), std::runtime_error);
}

TEST(AssociationMinerSerialize, RejectsGapBeyondTheLookahead) {
  AssociationMiner miner(small_config());
  const trace::BlockId seq[] = {100, 200, 1, 2, 3, 100, 200, 4, 5, 6, 7, 8};
  for (const trace::BlockId b : seq) {
    miner.observe(b);
  }
  std::vector<std::uint8_t> stream;
  miner.serialize(stream);
  AssocConfig narrow = small_config();
  narrow.lookahead = 1;  // window still exceeds it
  // Mined gaps of 2+ are invalid under the narrower config.
  EXPECT_THROW(load(stream, narrow),
               std::runtime_error);
}

}  // namespace
}  // namespace pfp::core::assoc
