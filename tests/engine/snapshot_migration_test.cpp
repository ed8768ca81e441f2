// Snapshot versions and the tagged predictor blob: v2 is the only image
// the reader accepts (a v1 header gets the typed "unsupported version"),
// and the blob must fail closed — truncation, garbage, implausible
// lengths, trailing bytes, and cross-kind restores all raise typed
// errors instead of silently corrupting the predictor.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/prefetch_engine.hpp"
#include "trace/trace.hpp"
#include "util/prng.hpp"

namespace pfp::engine {
namespace {

using core::policy::PolicyKind;

EngineConfig config_for(PolicyKind kind, std::size_t blocks = 64) {
  EngineConfig c;
  c.cache_blocks = blocks;
  c.policy.kind = kind;
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

using Image = std::vector<std::uint8_t>;

Image snapshot_bytes(const PrefetchEngine& eng) {
  Image image;
  eng.snapshot(image);
  return image;
}

std::size_t predictor_blob_size(const PrefetchEngine& eng) {
  Image blob;
  eng.prefetcher().save_predictor_state(blob);
  return blob.size();
}

Image prefix(const Image& image, std::size_t n) {
  return Image(image.begin(), image.begin() + static_cast<std::ptrdiff_t>(n));
}

void expect_restore_error(const EngineConfig& config, const Image& image,
                          const std::string& needle) {
  PrefetchEngine eng(config);
  try {
    eng.restore(image);
    FAIL() << "restore accepted a corrupt image (wanted: " << needle << ")";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(SnapshotMigration, V1HeaderIsAnUnsupportedVersion) {
  const EngineConfig config = config_for(PolicyKind::kTreeNextLimit);
  PrefetchEngine trained(config);
  trained.access_many(random_trace(11, 5'000, 100).blocks());
  Image image = snapshot_bytes(trained);
  image[4] = 1;  // little-endian u16 version = 1
  image[5] = 0;
  expect_restore_error(config, image, "unsupported version");
}

TEST(SnapshotMigration, V2RoundTripsTheMarkovPredictor) {
  const EngineConfig config = config_for(PolicyKind::kMarkov);
  PrefetchEngine original(config);
  original.access_many(random_trace(19, 20'000, 200).blocks());

  PrefetchEngine resumed(config);
  resumed.restore(snapshot_bytes(original));

  // The chain's parse position is transient by design, so continuation
  // outcomes may differ on the first accesses; the durable state — rows,
  // counts, residency, metrics — must re-snapshot byte-identically.
  EXPECT_EQ(snapshot_bytes(resumed), snapshot_bytes(original));
}

TEST(SnapshotMigration, V2RoundTripsTheAssocPredictor) {
  const EngineConfig config = config_for(PolicyKind::kAssoc);
  PrefetchEngine original(config);
  original.access_many(random_trace(23, 20'000, 200).blocks());

  PrefetchEngine resumed(config);
  resumed.restore(snapshot_bytes(original));
  EXPECT_EQ(snapshot_bytes(resumed), snapshot_bytes(original));
}

TEST(SnapshotMigration, V2RejectsCrossKindRestores) {
  PrefetchEngine markov(config_for(PolicyKind::kMarkov));
  markov.access_many(random_trace(29, 5'000, 100).blocks());
  const Image image = snapshot_bytes(markov);

  expect_restore_error(config_for(PolicyKind::kAssoc), image,
                       "predictor kind mismatch: snapshot carries markov "
                       "state but the configured policy keeps assoc");
  expect_restore_error(config_for(PolicyKind::kTreeNextLimit), image,
                       "predictor kind mismatch");
  expect_restore_error(config_for(PolicyKind::kNextLimit), image,
                       "predictor kind mismatch");
}

TEST(SnapshotMigration, V2RejectsATruncatedPredictorTag) {
  PrefetchEngine markov(config_for(PolicyKind::kMarkov));
  markov.access_many(random_trace(31, 5'000, 100).blocks());
  const Image image = snapshot_bytes(markov);
  const std::size_t tail = 4 + 8 + predictor_blob_size(markov);

  expect_restore_error(config_for(PolicyKind::kMarkov),
                       prefix(image, image.size() - tail),
                       "truncated predictor tag");
}

TEST(SnapshotMigration, V2RejectsATruncatedPredictorBlob) {
  PrefetchEngine markov(config_for(PolicyKind::kMarkov));
  markov.access_many(random_trace(37, 5'000, 100).blocks());
  const Image image = snapshot_bytes(markov);

  expect_restore_error(config_for(PolicyKind::kMarkov),
                       prefix(image, image.size() - 3),
                       "truncated predictor blob");
}

TEST(SnapshotMigration, V2RejectsAnImplausibleBlobLength) {
  PrefetchEngine markov(config_for(PolicyKind::kMarkov));
  markov.access_many(random_trace(41, 5'000, 100).blocks());
  Image image = snapshot_bytes(markov);
  const std::size_t blob_size = predictor_blob_size(markov);

  // Overwrite the little-endian u64 length prefix with ~2^62 bytes.
  const std::size_t len_at = image.size() - blob_size - 8;
  for (int i = 0; i < 8; ++i) {
    image[len_at + static_cast<std::size_t>(i)] = (i == 7) ? 0x40 : 0x00;
  }
  expect_restore_error(config_for(PolicyKind::kMarkov), image,
                       "implausible predictor blob length");
}

TEST(SnapshotMigration, V2RejectsAGarbagePredictorBlob) {
  PrefetchEngine markov(config_for(PolicyKind::kMarkov));
  markov.access_many(random_trace(43, 5'000, 100).blocks());
  Image image = snapshot_bytes(markov);
  const std::size_t blob_size = predictor_blob_size(markov);

  // Stomp the blob's own magic: the policy's deserializer must refuse.
  const std::size_t blob_at = image.size() - blob_size;
  image[blob_at] = 'X';
  image[blob_at + 1] = 'X';

  PrefetchEngine eng(config_for(PolicyKind::kMarkov));
  EXPECT_THROW(eng.restore(image), std::runtime_error);
}

TEST(SnapshotMigration, V2RejectsTrailingBlobBytes) {
  PrefetchEngine markov(config_for(PolicyKind::kMarkov));
  markov.access_many(random_trace(47, 5'000, 100).blocks());
  Image image = snapshot_bytes(markov);
  const std::size_t blob_size = predictor_blob_size(markov);

  // Grow the declared length by four and pad: the policy parses its
  // stream, the engine must notice the unconsumed tail.
  const std::size_t len_at = image.size() - blob_size - 8;
  const std::uint64_t padded = static_cast<std::uint64_t>(blob_size) + 4;
  for (int i = 0; i < 8; ++i) {
    image[len_at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((padded >> (8 * i)) & 0xff);
  }
  for (const char c : {'p', 'a', 'd', '!'}) {
    image.push_back(static_cast<std::uint8_t>(c));
  }
  expect_restore_error(config_for(PolicyKind::kMarkov), image,
                       "predictor blob has trailing bytes");
}

}  // namespace
}  // namespace pfp::engine
