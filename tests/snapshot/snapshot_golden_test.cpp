// Format pin: the exact bytes of small trained PFEG images, one per
// predictor family (PFTR tree, PFMK markov, PFAS assoc blobs).  Any
// change to the encoder — field order, widths, endianness, the blob
// framing — changes a digest here, so a codec rewrite that claims "same
// format" has to prove it against these values.  A restore must also
// re-snapshot to the same bytes.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "engine/prefetch_engine.hpp"
#include "sha256.hpp"
#include "trace/trace.hpp"
#include "util/prng.hpp"

namespace pfp::engine {
namespace {

using core::policy::PolicyKind;

EngineConfig config_for(PolicyKind kind) {
  EngineConfig c;
  c.cache_blocks = 32;
  c.policy.kind = kind;
  return c;
}

/// A small stream with enough repetition for every family to learn.
trace::Trace training_trace() {
  trace::Trace t("golden");
  util::Xoshiro256 rng(2024);
  std::uint64_t block = 0;
  for (int i = 0; i < 3'000; ++i) {
    block = rng.below(4) == 0 ? rng.below(96) : (block + 1) % 96;
    t.append(block);
  }
  return t;
}

std::vector<std::uint8_t> image_of(const PrefetchEngine& eng) {
  std::vector<std::uint8_t> out;
  eng.snapshot(out);
  return out;
}

// gtest names each case after the raw bytes of its parameter, so the
// struct carries no implicit padding: `pad` fills the gap after `kind`
// with zeros, which keeps every case name the same from run to run.
struct Golden {
  PolicyKind kind;
  std::uint32_t pad = 0;
  std::size_t size;
  const char* sha256;
};

class SnapshotGolden : public ::testing::TestWithParam<Golden> {};

TEST_P(SnapshotGolden, ImageBytesArePinned) {
  const Golden& golden = GetParam();
  PrefetchEngine trained(config_for(golden.kind));
  trained.access_many(training_trace().blocks());
  const std::vector<std::uint8_t> image = image_of(trained);
  EXPECT_EQ(image.size(), golden.size);
  EXPECT_EQ(testing::sha256_hex(image), golden.sha256);

  PrefetchEngine restored(config_for(golden.kind));
  restored.restore(image);
  EXPECT_EQ(image_of(restored), image);
}

TEST(SnapshotGoldenDigest, MatchesKnownVectors) {
  const std::string abc = "abc";
  EXPECT_EQ(testing::sha256_hex(std::vector<std::uint8_t>(abc.begin(),
                                                          abc.end())),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(testing::sha256_hex({}),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

INSTANTIATE_TEST_SUITE_P(
    Families, SnapshotGolden,
    ::testing::Values(
        Golden{.kind = PolicyKind::kTreeNextLimit,
               .size = 21086,
               .sha256 = "127361912cc19e26efd3435f106fc71d"
                         "651edea4d274695a0519f46251ac12bc"},
        Golden{.kind = PolicyKind::kMarkov,
               .size = 7987,
               .sha256 = "0adbc79f1d130636306dee21dd35a01f"
                         "9f9501d6429375b8197effeafe2b85e8"},
        Golden{.kind = PolicyKind::kAssoc,
               .size = 12440,
               .sha256 = "c5951e18522d178b6f54057598548203"
                         "7cfe240a839aa13d8d85f3b2908c95f0"}),
    [](const auto& param_info) {
      switch (param_info.param.kind) {
        case PolicyKind::kTreeNextLimit:
          return std::string("TreeNextLimit");
        case PolicyKind::kMarkov:
          return std::string("Markov");
        default:
          return std::string("Assoc");
      }
    });

}  // namespace
}  // namespace pfp::engine
