// Trace deserialization.
//
// Two formats:
//  * text — one reference per line: "<block> [<stream>]"; '#' starts a
//    comment; blank lines ignored.  Interoperates with awk-style tooling.
//  * binary — "PFPT" magic, u16 version, u64 record count, then per record
//    a little-endian u64 block and u32 stream.  Compact and fast for the
//    multi-hundred-thousand-reference paper workloads.
#pragma once

#include <iosfwd>
#include <stdexcept>
#include <string>

#include "trace/trace.hpp"

namespace pfp::trace {

/// Raised on malformed input in either format.
class TraceFormatError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Parses the text format.  The trace name is taken from `name`.
Trace read_text(std::istream& in, const std::string& name);

/// Parses the binary format.  Reads `in` to its end into one transient
/// buffer and decodes the bytes in memory, so peak memory is the input's
/// size plus the decoded Trace; bytes after the counted records are
/// ignored.
Trace read_binary(std::istream& in, const std::string& name);

/// Opens `path` and dispatches on extension: ".pfpt" binary, else text.
Trace read_file(const std::string& path);

}  // namespace pfp::trace
