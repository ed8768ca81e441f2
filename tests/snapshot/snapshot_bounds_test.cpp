// Hostile headers: every count or length a snapshot decoder reads is
// bounded by the bytes in hand before anything is sized from it.  A
// header claiming 2^40 tree nodes, a predictor blob longer than the
// image, or more rows than the payload could hold must raise the typed
// error without a large allocation.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "alloc_probe.hpp"
#include "core/assoc/association_miner.hpp"
#include "core/markov/markov_model.hpp"
#include "core/tree/prefetch_tree.hpp"
#include "engine/prefetch_engine.hpp"
#include "trace/trace.hpp"
#include "util/binary_io.hpp"
#include "util/prng.hpp"

namespace pfp {
namespace {

using Image = std::vector<std::uint8_t>;

/// Far below any count these headers claim, far above what the decoders
/// allocate for the few bytes they are handed.
constexpr std::size_t kAllocationCeiling = std::size_t{1} << 20;

/// A fresh image holding a format's four-byte magic and version 1.
Image header(const char (&magic)[5]) {
  Image out(magic, magic + 4);
  util::put_u16(out, 1);
  return out;
}

/// Runs `decode` on a fresh probe window; expects a std::runtime_error
/// whose message contains `needle` and no allocation above the ceiling.
template <typename Decode>
void expect_bounded_reject(Decode decode, const std::string& needle) {
  testing::reset_largest_allocation();
  try {
    decode();
    ADD_FAILURE() << "decoder accepted a hostile header (wanted: " << needle
                  << ")";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
  EXPECT_LT(testing::largest_allocation(), kAllocationCeiling);
}

TEST(SnapshotBounds, TreeClaimingTwoToTheFortyNodesIsRejected) {
  Image image = header("PFTR");
  util::put_u64(image, std::uint64_t{1} << 40);
  util::put_u64(image, 7);  // root weight
  util::put_u32(image, 1);  // root child count
  expect_bounded_reject(
      [&] {
        util::ByteReader in(image);
        (void)core::tree::PrefetchTree::deserialize(in);
      },
      "node count exceeds the bytes present");
}

TEST(SnapshotBounds, TreeChildCountBeyondTheNodeCountIsRejected) {
  // A plausible node count, but one node claims 2^32 - 1 children: the
  // child run must not be sized from that claim.
  Image image = header("PFTR");
  util::put_u64(image, 2);
  util::put_u64(image, 1);  // root weight
  util::put_u32(image, 0xffffffffu);
  util::put_u64(image, 42);  // block
  util::put_u64(image, 1);   // weight
  util::put_u32(image, 0);
  expect_bounded_reject(
      [&] {
        util::ByteReader in(image);
        (void)core::tree::PrefetchTree::deserialize(in);
      },
      "child counts exceed the node count");
}

TEST(SnapshotBounds, MarkovRowCountBeyondTheBytesIsRejected) {
  core::markov::MarkovConfig config;
  Image image = header("PFMK");
  util::put_u64(image, config.max_contexts);  // within the configured bound
  expect_bounded_reject(
      [&] {
        util::ByteReader in(image);
        (void)core::markov::DeltaMarkov::deserialize(in, config);
      },
      "row count exceeds the bytes present");
}

TEST(SnapshotBounds, AssocRowCountBeyondTheBytesIsRejected) {
  core::assoc::AssocConfig config;
  Image image = header("PFAS");
  util::put_u64(image, config.max_rows);  // within the configured bound
  expect_bounded_reject(
      [&] {
        util::ByteReader in(image);
        (void)core::assoc::AssociationMiner::deserialize(in, config);
      },
      "row count exceeds the bytes present");
}

class EngineBounds : public ::testing::Test {
 protected:
  EngineBounds() {
    config_.cache_blocks = 64;
    config_.policy.kind = core::policy::PolicyKind::kTreeNextLimit;
    engine::PrefetchEngine trained(config_);
    trace::Trace t("t");
    util::Xoshiro256 rng(5);
    for (int i = 0; i < 2'000; ++i) {
      t.append(rng.below(200));
    }
    trained.access_many(t.blocks());
    trained.snapshot(image_);
    Image blob;
    trained.prefetcher().save_predictor_state(blob);
    blob_at_ = image_.size() - blob.size();
  }

  /// Rewrites the u64 predictor-blob length prefix.
  void set_blob_length(std::uint64_t length) {
    util::patch_le(image_, blob_at_ - 8, length);
  }

  void expect_rejected(const std::string& needle) {
    engine::PrefetchEngine fresh(config_);
    expect_bounded_reject([&] { fresh.restore(image_); }, needle);
  }

  engine::EngineConfig config_;
  Image image_;
  std::size_t blob_at_ = 0;
};

TEST_F(EngineBounds, BlobOneByteLongerThanThePayloadIsRejected) {
  set_blob_length(image_.size() - blob_at_ + 1);
  expect_rejected("implausible predictor blob length");
}

TEST_F(EngineBounds, TreeBlobClaimingTwoToTheFortyNodesIsRejected) {
  // The node count sits after the blob's magic and version.
  util::patch_le(image_, blob_at_ + 6, std::uint64_t{1} << 40);
  expect_rejected("node count exceeds the bytes present");
}

TEST_F(EngineBounds, TrailingBytesAfterTheImageAreRejected) {
  image_.push_back(0);
  expect_rejected("trailing bytes after the image");
}

}  // namespace
}  // namespace pfp
