#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "trace/reader.hpp"
#include "trace/writer.hpp"

namespace pfp::trace {
namespace {

Trace sample_trace() {
  Trace t("sample");
  t.append(1, 0);
  t.append(99999999999ULL, 7);
  t.append(42, 3);
  t.append(42, 3);
  return t;
}

TEST(TraceIo, TextRoundTrip) {
  const Trace original = sample_trace();
  std::stringstream buf;
  write_text(buf, original);
  const Trace read = read_text(buf, "sample");
  ASSERT_EQ(read.size(), original.size());
  for (std::size_t i = 0; i < read.size(); ++i) {
    EXPECT_EQ(read[i], original[i]) << "record " << i;
  }
}

TEST(TraceIo, BinaryRoundTrip) {
  const Trace original = sample_trace();
  std::stringstream buf;
  write_binary(buf, original);
  const Trace read = read_binary(buf, "sample");
  ASSERT_EQ(read.size(), original.size());
  for (std::size_t i = 0; i < read.size(); ++i) {
    EXPECT_EQ(read[i], original[i]) << "record " << i;
  }
}

TEST(TraceIo, TextSkipsCommentsAndBlanks) {
  std::stringstream buf("# header\n\n10\n  20 5  # trailing comment\n\n");
  const Trace t = read_text(buf, "t");
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t[0].block, 10u);
  EXPECT_EQ(t[1].block, 20u);
  EXPECT_EQ(t[1].stream, 5u);
}

TEST(TraceIo, TextRejectsJunkBlock) {
  std::stringstream buf("banana\n");
  EXPECT_THROW(read_text(buf, "t"), TraceFormatError);
}

TEST(TraceIo, TextRejectsJunkStream) {
  std::stringstream buf("1 banana\n");
  EXPECT_THROW(read_text(buf, "t"), TraceFormatError);
}

TEST(TraceIo, TextRejectsOverflowingStream) {
  std::stringstream buf("1 4294967296\n");  // 2^32 exceeds StreamId
  EXPECT_THROW(read_text(buf, "t"), TraceFormatError);
}

TEST(TraceIo, BinaryRejectsBadMagic) {
  std::stringstream buf("NOPE, not a trace");
  EXPECT_THROW(read_binary(buf, "t"), TraceFormatError);
}

TEST(TraceIo, BinaryRejectsTruncatedBody) {
  const Trace original = sample_trace();
  std::stringstream buf;
  write_binary(buf, original);
  std::string bytes = buf.str();
  bytes.resize(bytes.size() - 5);
  std::stringstream cut(bytes);
  EXPECT_THROW(read_binary(cut, "t"), TraceFormatError);
}

// A 14-byte file whose header claims far more records than it holds must
// fail typed, not size an allocation from the claim (std::bad_alloc at
// 2^40 records, std::length_error at 2^64 - 1).
TEST(TraceIo, BinaryRejectsHostileRecordCounts) {
  for (const std::uint64_t count :
       {std::uint64_t{1} << 40, ~std::uint64_t{0}}) {
    std::string header("PFPT\x01\x00", 6);
    for (int i = 0; i < 8; ++i) {
      header.push_back(static_cast<char>((count >> (8 * i)) & 0xff));
    }
    ASSERT_EQ(header.size(), 14u);
    std::stringstream buf(header);
    EXPECT_THROW(read_binary(buf, "t"), TraceFormatError) << count;
  }
}

TEST(TraceIo, FileRoundTripBothFormats) {
  const Trace original = sample_trace();
  const std::string text_path = ::testing::TempDir() + "/pfp_io_test.txt";
  const std::string bin_path = ::testing::TempDir() + "/pfp_io_test.pfpt";
  write_file(text_path, original);
  write_file(bin_path, original);
  const Trace from_text = read_file(text_path);
  const Trace from_bin = read_file(bin_path);
  ASSERT_EQ(from_text.size(), original.size());
  ASSERT_EQ(from_bin.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(from_text[i].block, original[i].block);
    EXPECT_EQ(from_bin[i], original[i]);
  }
}

TEST(TraceIo, ReadMissingFileThrows) {
  EXPECT_THROW(read_file("/nonexistent/path/x.pfpt"), TraceFormatError);
}

TEST(TraceIo, EmptyTraceRoundTrips) {
  Trace empty("e");
  std::stringstream buf;
  write_binary(buf, empty);
  const Trace read = read_binary(buf, "e");
  EXPECT_TRUE(read.empty());
}

}  // namespace
}  // namespace pfp::trace
