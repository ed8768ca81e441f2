// Hostile headers: every count or length a snapshot decoder reads is
// bounded by the bytes in hand before anything is sized from it.  A
// header claiming 2^40 tree nodes, a predictor blob longer than the
// image, or more rows than the payload could hold must raise the typed
// error without a large allocation.  Hostile values get the same
// treatment: a NaN or infinite time total or prefetch cost in an engine
// image must be rejected before it can reach the cache or the metrics.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "alloc_probe.hpp"
#include "core/assoc/association_miner.hpp"
#include "core/markov/markov_model.hpp"
#include "core/tree/prefetch_tree.hpp"
#include "engine/prefetch_engine.hpp"
#include "trace/trace.hpp"
#include "trace/workloads.hpp"
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

/// Byte offsets in a PFEG v2 image: magic, version and cache_blocks
/// (14 bytes), then four u64 counters before the f64 time totals, and the
/// policy block whose fourth field is sum_prefetch_probability.
constexpr std::size_t kElapsedAt = 14 + 4 * 8;
constexpr std::size_t kStallAt = kElapsedAt + 8;
constexpr std::size_t kQueueDelayAt = kStallAt + 8;
constexpr std::size_t kSumProbabilityAt = kQueueDelayAt + 16 + 3 * 8;
constexpr std::size_t kDemandCountAt = kSumProbabilityAt + 8 + 12 * 8;
/// Within one prefetch entry: block, probability, depth, eject_cost, obl,
/// issued_period, completion_ms.
constexpr std::size_t kEjectCostInEntry = 8 + 8 + 4;
constexpr std::size_t kCompletionInEntry = kEjectCostInEntry + 8 + 1 + 8;

class EngineNonFinite : public ::testing::Test {
 protected:
  EngineNonFinite() {
    config_.cache_blocks = 256;
    config_.policy.kind = core::policy::PolicyKind::kTree;
    engine::PrefetchEngine trained(config_);
    trained.access_many(
        trace::make_workload(trace::Workload::kCad, 5'000, 1).blocks());
    trained.snapshot(image_);
    trained_ = trained.metrics();
    const auto entries = trained.buffer_cache().prefetch().entries();
    if (!entries.empty()) {
      first_entry_ = entries.front();
    }

    util::ByteReader in(image_);
    (void)in.read_bytes(kDemandCountAt);
    const std::uint64_t demand_count = in.read_u64();
    (void)in.read_bytes(static_cast<std::size_t>(demand_count) * 8);
    prefetch_count_ = in.read_u64();
    first_entry_at_ = kDemandCountAt + 8 + demand_count * 8 + 8;
  }

  /// Restores `image_` with the f64 at `at` replaced by `value`.
  void expect_rejected_with(std::size_t at, double value) {
    Image image = image_;
    util::patch_le(image, at, std::bit_cast<std::uint64_t>(value));
    engine::PrefetchEngine fresh(config_);
    try {
      fresh.restore(image);
      ADD_FAILURE() << "restore accepted " << value << " at byte " << at;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("engine snapshot stream: "),
                std::string::npos)
          << e.what();
    }
  }

  /// The f64 stored at `at` in the untouched image.
  [[nodiscard]] double stored(std::size_t at) const {
    util::ByteReader in(image_);
    (void)in.read_bytes(at);
    return in.read_f64();
  }

  engine::EngineConfig config_;
  Image image_;
  engine::Metrics trained_;
  cache::PrefetchEntry first_entry_;
  std::uint64_t prefetch_count_ = 0;
  std::size_t first_entry_at_ = 0;
};

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST_F(EngineNonFinite, OffsetsNameTheFieldsAndTheUntouchedImageRestores) {
  EXPECT_EQ(stored(kElapsedAt), trained_.elapsed_ms);
  EXPECT_EQ(stored(kStallAt), trained_.stall_ms);
  EXPECT_EQ(stored(kQueueDelayAt), trained_.disk_queue_delay_ms);
  EXPECT_EQ(stored(kSumProbabilityAt),
            trained_.policy.sum_prefetch_probability);
  ASSERT_GT(prefetch_count_, 0u) << "the trained engine holds no prefetch";
  EXPECT_EQ(stored(first_entry_at_ + kEjectCostInEntry),
            first_entry_.eject_cost);
  EXPECT_EQ(stored(first_entry_at_ + kCompletionInEntry),
            first_entry_.completion_ms);
  engine::PrefetchEngine fresh(config_);
  EXPECT_NO_THROW(fresh.restore(image_));
}

TEST_F(EngineNonFinite, NonFiniteOrNegativeTotalsAreRejected) {
  for (const std::size_t at :
       {kElapsedAt, kStallAt, kQueueDelayAt, kSumProbabilityAt}) {
    for (const double value : {kNaN, kInf, -kInf, -1.0}) {
      expect_rejected_with(at, value);
    }
  }
}

TEST_F(EngineNonFinite, NonFinitePrefetchCostOrCompletionIsRejected) {
  ASSERT_GT(prefetch_count_, 0u) << "the trained engine holds no prefetch";
  for (const std::size_t field : {kEjectCostInEntry, kCompletionInEntry}) {
    for (const double value : {kNaN, kInf, -kInf}) {
      expect_rejected_with(first_entry_at_ + field, value);
    }
  }
}

}  // namespace
}  // namespace pfp
