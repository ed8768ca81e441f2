#include "trace/reader.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <fstream>
#include <istream>
#include <iterator>
#include <string>

#include "util/binary_io.hpp"
#include "util/string_utils.hpp"

namespace pfp::trace {

namespace {

constexpr std::array<char, 4> kMagic = {'P', 'F', 'P', 'T'};
constexpr std::uint16_t kVersion = 1;
/// One record on disk: u64 block + u32 stream.
constexpr std::size_t kRecordBytes = 12;

bool ends_with(const std::string& text, const std::string& suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

Trace read_text(std::istream& in, const std::string& name) {
  Trace trace(name);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    std::string_view view = line;
    if (const auto hash = view.find('#'); hash != std::string_view::npos) {
      view = view.substr(0, hash);
    }
    view = util::trim(view);
    if (view.empty()) {
      continue;
    }
    const auto space = view.find(' ');
    const auto block_text = view.substr(0, space);
    const auto block = util::parse_u64(block_text);
    if (!block) {
      throw TraceFormatError("line " + std::to_string(lineno) +
                             ": bad block id '" + std::string(block_text) +
                             "'");
    }
    StreamId stream = 0;
    if (space != std::string_view::npos) {
      const auto stream_text = util::trim(view.substr(space + 1));
      const auto parsed = util::parse_u64(stream_text);
      if (!parsed || *parsed > 0xffffffffULL) {
        throw TraceFormatError("line " + std::to_string(lineno) +
                               ": bad stream id '" + std::string(stream_text) +
                               "'");
      }
      stream = static_cast<StreamId>(*parsed);
    }
    trace.append(*block, stream);
  }
  return trace;
}

Trace read_binary(std::istream& in, const std::string& name) {
  const std::string bytes{std::istreambuf_iterator<char>(in),
                          std::istreambuf_iterator<char>()};
  util::ByteReader reader(
      {reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()});
  if (!reader.read_magic(kMagic)) {
    throw TraceFormatError("not a PFPT binary trace");
  }
  const auto version = reader.read_u16();
  const auto count = reader.read_u64();
  if (!reader.ok()) {
    throw TraceFormatError("truncated PFPT header");
  }
  if (version != kVersion) {
    throw TraceFormatError("unsupported PFPT version " +
                           std::to_string(version));
  }
  Trace trace(name);
  // The header's count is untrusted: reserve only what the bytes can hold.
  trace.reserve(std::min<std::uint64_t>(count,
                                        reader.remaining() / kRecordBytes));
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto block = reader.read_u64();
    const auto stream = reader.read_u32();
    if (!reader.ok()) {
      throw TraceFormatError("truncated PFPT body at record " +
                             std::to_string(i));
    }
    trace.append(block, stream);
  }
  return trace;
}

Trace read_file(const std::string& path) {
  const bool binary = ends_with(path, ".pfpt");
  std::ifstream in(path, binary ? std::ios::binary : std::ios::in);
  if (!in) {
    throw TraceFormatError("cannot open '" + path + "'");
  }
  return binary ? read_binary(in, path) : read_text(in, path);
}

}  // namespace pfp::trace
