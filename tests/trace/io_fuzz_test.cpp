// Seeded mutation fuzz over real PFPT binary traces.  Mutations are bit
// flips, truncations, edits of the header's record count and splices of
// bytes from another trace.
//
// Contract for every mutated file: read_binary either throws
// TraceFormatError, or returns exactly the records the header counts,
// decoded from the bytes that follow it.  It never crashes (the
// sanitizer legs run this binary) and never makes an allocation larger
// than a small multiple of the bytes it was handed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <sstream>
#include <string>

#include "../snapshot/alloc_probe.hpp"
#include "trace/reader.hpp"
#include "trace/writer.hpp"
#include "util/binary_io.hpp"
#include "util/prng.hpp"

namespace pfp::trace {
namespace {

constexpr int kMutations = 2'000;
constexpr std::size_t kHeaderBytes = 14;  // magic 4, version 2, count 8
constexpr std::size_t kCountAt = 6;
constexpr std::size_t kRecordBytes = 12;

std::string encoded(std::uint64_t seed, int length) {
  Trace t("fuzz");
  util::Xoshiro256 rng(seed);
  for (int i = 0; i < length; ++i) {
    t.append(rng.below(4) == 0 ? rng.next() : rng.below(500),
             static_cast<StreamId>(rng.below(8)));
  }
  std::ostringstream out;
  write_binary(out, t);
  return out.str();
}

std::string mutate(const std::string& file, const std::string& donor,
                   util::Xoshiro256& rng) {
  std::string out = file;
  switch (rng.below(4)) {
    case 0: {  // bit flips
      const std::uint64_t flips = 1 + rng.below(4);
      for (std::uint64_t i = 0; i < flips; ++i) {
        out[rng.below(out.size())] ^= static_cast<char>(1u << rng.below(8));
      }
      break;
    }
    case 1:  // truncation
      out.resize(rng.below(out.size()));
      break;
    case 2: {  // record-count edits
      const std::uint64_t current = util::load_le<std::uint64_t>(
          reinterpret_cast<const std::uint8_t*>(out.data()) + kCountAt);
      const std::uint64_t choices[] = {0,
                                       1,
                                       current + 1,
                                       current - 1,
                                       current * 2,
                                       0xffffffffULL,
                                       std::uint64_t{1} << 40,
                                       ~std::uint64_t{0},
                                       rng.next()};
      const std::uint64_t count = choices[rng.below(std::size(choices))];
      for (std::size_t i = 0; i < 8; ++i) {
        out[kCountAt + i] = static_cast<char>((count >> (8 * i)) & 0xff);
      }
      break;
    }
    default: {  // splice: overwrite a range with bytes from another file
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

TEST(TraceFuzz, MutatedBinaryTracesFailTypedOrDecodeExactly) {
  const std::string file = encoded(1, 300);
  const std::string donor = encoded(2, 200);
  util::Xoshiro256 rng(0x7ace0000);
  int rejected = 0;
  int accepted = 0;
  for (int i = 0; i < kMutations; ++i) {
    const std::string mutated = mutate(file, donor, rng);
    std::istringstream in(mutated);
    testing::reset_largest_allocation();
    try {
      const Trace got = read_binary(in, "fuzz");
      ++accepted;
      // Accepted: the header counted exactly the records decoded, and
      // re-encoding them reproduces the bytes they came from.
      ASSERT_GE(mutated.size(), kHeaderBytes + got.size() * kRecordBytes);
      std::ostringstream again;
      write_binary(again, got);
      EXPECT_EQ(again.str(),
                mutated.substr(0, kHeaderBytes + got.size() * kRecordBytes))
          << "mutation " << i;
    } catch (const TraceFormatError&) {
      ++rejected;
    }
    // The decoder may size its structures from counts the bytes can
    // hold; anything beyond a small multiple of the input is a bomb.
    EXPECT_LE(testing::largest_allocation(), 16 * mutated.size() + (1u << 20))
        << "file of " << mutated.size() << " bytes";
  }
  EXPECT_GT(rejected, kMutations / 4);
  EXPECT_GT(accepted, kMutations / 10);
}

}  // namespace
}  // namespace pfp::trace
