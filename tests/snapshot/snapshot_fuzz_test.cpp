// Seeded mutation fuzz over real snapshot images: PFEG engine images of
// a trained tree, markov and assoc tenant, and each family's predictor
// blob (PFTR/PFMK/PFAS) on its own.  Mutations are bit flips,
// truncations, edits of the count and length fields, and splices of
// bytes from other images.
//
// Contract for every mutated image: restore either throws
// std::runtime_error (the typed bad-snapshot path), or succeeds with a
// state that passes a SIM_AUDIT sweep and keeps serving accesses.  It
// never crashes (the sanitizer legs run this binary) and never makes an
// allocation larger than a small multiple of the bytes it was handed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "alloc_probe.hpp"
#include "core/policy/assoc_policy.hpp"
#include "core/policy/markov_policy.hpp"
#include "core/policy/tree_base.hpp"
#include "engine/prefetch_engine.hpp"
#include "trace/trace.hpp"
#include "util/binary_io.hpp"
#include "util/prng.hpp"

namespace pfp::engine {
namespace {

using core::policy::PolicyKind;
using Image = std::vector<std::uint8_t>;

constexpr int kMutationsPerImage = 400;

EngineConfig config_for(PolicyKind kind) {
  EngineConfig c;
  c.cache_blocks = 32;
  c.policy.kind = kind;
  return c;
}

trace::Trace training_trace(std::uint64_t seed, int length) {
  trace::Trace t("fuzz");
  util::Xoshiro256 rng(seed);
  std::uint64_t block = 0;
  for (int i = 0; i < length; ++i) {
    block = rng.below(4) == 0 ? rng.below(80) : (block + 1) % 80;
    t.append(block);
  }
  return t;
}

/// One family's pristine images plus where their count/length fields sit.
struct Corpus {
  PolicyKind kind;
  Image engine_image;
  Image blob;
  std::size_t blob_at = 0;  ///< offset of the blob inside engine_image
};

Corpus make_corpus(PolicyKind kind) {
  Corpus corpus{kind, {}, {}, 0};
  PrefetchEngine trained(config_for(kind));
  trained.access_many(training_trace(static_cast<std::uint64_t>(kind), 2'500).blocks());
  trained.snapshot(corpus.engine_image);
  trained.prefetcher().save_predictor_state(corpus.blob);
  corpus.blob_at = corpus.engine_image.size() - corpus.blob.size();
  return corpus;
}

/// Offsets of the u64 count/length fields worth attacking: the engine's
/// residency counts and blob length, and the blob's own count (after its
/// magic and version).  Engine layout: magic 4, version 2, cache_blocks
/// 8, 24 metric words, then the demand count.
std::vector<std::size_t> length_fields(const Corpus& corpus) {
  constexpr std::size_t kDemandCountAt = 4 + 2 + 8 + 24 * 8;
  const std::size_t demand =
      util::load_le<std::uint64_t>(corpus.engine_image.data() + kDemandCountAt);
  const std::size_t prefetch_count_at = kDemandCountAt + 8 + demand * 8;
  return {kDemandCountAt, prefetch_count_at, corpus.blob_at - 8,
          corpus.blob_at + 6};
}

/// Applies one seeded mutation to a copy of `image`.
Image mutate(const Image& image, const std::vector<std::size_t>& fields,
             const Image& donor, util::Xoshiro256& rng) {
  Image out = image;
  switch (rng.below(4)) {
    case 0: {  // bit flips
      const std::uint64_t flips = 1 + rng.below(4);
      for (std::uint64_t i = 0; i < flips; ++i) {
        out[rng.below(out.size())] ^=
            static_cast<std::uint8_t>(1u << rng.below(8));
      }
      break;
    }
    case 1:  // truncation
      out.resize(rng.below(out.size()));
      break;
    case 2: {  // count / length field edits
      const std::size_t at = fields[rng.below(fields.size())];
      if (at + 8 > out.size()) {
        break;
      }
      const std::uint64_t current = util::load_le<std::uint64_t>(&out[at]);
      const std::uint64_t choices[] = {
          0,
          1,
          current + 1,
          current - 1,
          current * 2,
          out.size() - at,
          0xffffffffULL,
          std::uint64_t{1} << 40,
          std::uint64_t{1} << 63,
          rng.next()};
      util::patch_le(out, at, choices[rng.below(std::size(choices))]);
      break;
    }
    default: {  // splice: overwrite a range with bytes from another image
      const std::size_t at = rng.below(out.size());
      const std::size_t from = rng.below(donor.size());
      const std::size_t n = std::min<std::size_t>(
          {1 + rng.below(64), out.size() - at, donor.size() - from});
      std::copy_n(donor.begin() + static_cast<std::ptrdiff_t>(from), n,
                  out.begin() + static_cast<std::ptrdiff_t>(at));
      break;
    }
  }
  return out;
}

/// SIM_AUDIT sweep of a restored engine: the buffer pool and whichever
/// predictor the policy keeps (no-ops unless built with SIM_AUDIT).
void audit(const PrefetchEngine& eng) {
  eng.buffer_cache().audit();
  const core::policy::Prefetcher& policy = eng.prefetcher();
  if (const auto* tree =
          dynamic_cast<const core::policy::TreeInstrumentedPrefetcher*>(
              &policy)) {
    tree->prefetch_tree().audit();
  } else if (const auto* markov =
                 dynamic_cast<const core::policy::MarkovCostBenefit*>(
                     &policy)) {
    markov->model().audit();
  } else if (const auto* assoc =
                 dynamic_cast<const core::policy::AssocCostBenefit*>(
                     &policy)) {
    assoc->miner().audit();
  }
}

struct Tally {
  int rejected = 0;
  int accepted = 0;
};

/// Runs `restore` under the allocation probe and enforces the contract;
/// `check` audits and exercises an accepted result.
void run_one(const Image& mutated, const std::function<void()>& restore,
             const std::function<void()>& check, Tally& tally) {
  testing::reset_largest_allocation();
  bool accepted = false;
  try {
    restore();
    accepted = true;
  } catch (const std::runtime_error&) {
    ++tally.rejected;
  }
  // A decoder may size its structures from counts the bytes can hold;
  // anything beyond a small multiple of the input is an allocation bomb.
  EXPECT_LE(testing::largest_allocation(), 16 * mutated.size() + (1u << 20))
      << "image of " << mutated.size() << " bytes";
  if (accepted) {
    ++tally.accepted;
    check();
  }
}

class SnapshotFuzz : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(SnapshotFuzz, MutatedEngineImagesFailTypedOrRestoreClean) {
  const Corpus corpus = make_corpus(GetParam());
  const Corpus donor = make_corpus(GetParam() == PolicyKind::kMarkov
                                       ? PolicyKind::kAssoc
                                       : PolicyKind::kMarkov);
  const std::vector<std::size_t> fields = length_fields(corpus);
  const trace::Trace continuation = training_trace(99, 300);
  util::Xoshiro256 rng(0x5eed0000 + static_cast<std::uint64_t>(GetParam()));
  Tally tally;
  for (int i = 0; i < kMutationsPerImage; ++i) {
    const Image& other = rng.below(2) == 0 ? corpus.engine_image
                                           : donor.engine_image;
    const Image mutated = mutate(corpus.engine_image, fields, other, rng);
    PrefetchEngine eng(config_for(corpus.kind));
    run_one(
        mutated, [&] { eng.restore(mutated); },
        [&] {
          audit(eng);
          eng.access_many(continuation.blocks());
          audit(eng);
        },
        tally);
  }
  EXPECT_GT(tally.rejected, kMutationsPerImage / 4);
  EXPECT_GT(tally.accepted, 0);
}

TEST_P(SnapshotFuzz, MutatedPredictorBlobsFailTypedOrRestoreClean) {
  // The blob is mutated on its own, then re-wrapped with a correct length
  // prefix, so every mutation reaches the family's decoder.
  const Corpus corpus = make_corpus(GetParam());
  const std::vector<std::size_t> fields = {6};  // count after magic+version
  const trace::Trace continuation = training_trace(7, 300);
  util::Xoshiro256 rng(0xb10b0000 + static_cast<std::uint64_t>(GetParam()));
  Tally tally;
  for (int i = 0; i < kMutationsPerImage; ++i) {
    const Image blob = mutate(corpus.blob, fields, corpus.blob, rng);
    Image wrapped(corpus.engine_image.begin(),
                  corpus.engine_image.begin() +
                      static_cast<std::ptrdiff_t>(corpus.blob_at - 8));
    util::put_u64(wrapped, blob.size());
    util::put_bytes(wrapped, blob);
    PrefetchEngine eng(config_for(corpus.kind));
    run_one(
        wrapped, [&] { eng.restore(wrapped); },
        [&] {
          audit(eng);
          eng.access_many(continuation.blocks());
          audit(eng);
        },
        tally);
  }
  EXPECT_GT(tally.rejected, kMutationsPerImage / 4);
  EXPECT_GT(tally.accepted, 0);
}

INSTANTIATE_TEST_SUITE_P(Families, SnapshotFuzz,
                         ::testing::Values(PolicyKind::kTreeNextLimit,
                                           PolicyKind::kMarkov,
                                           PolicyKind::kAssoc),
                         [](const auto& param_info) {
                           switch (param_info.param) {
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
