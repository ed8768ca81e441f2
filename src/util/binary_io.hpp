// The repo's one little-endian byte codec.
//
// Every persistent or wire format speaks the same dialect: fixed-width
// little-endian integers, signed values as their two's-complement bit
// pattern, doubles as bit-cast u64.  Encoders append to a
// std::vector<std::uint8_t>; decoders read a std::span through
// ByteReader, a bounds-checked cursor.  This covers the "PFTR" tree, the
// "PFMK"/"PFAS" predictor blobs, "PFEG" engine snapshots and the "PFP1"
// wire protocol.  The byte order is fixed (a plain copy on little-endian
// hosts, byte shifts elsewhere), so the output does not depend on the
// host.
//
// A ByteReader never reads past its span and never throws: after an
// overrun every read returns zero and ok() latches false, so a parser can
// read field by field and check once per record.  Each format raises its
// own typed error ("prefetch-tree stream: ...", "engine snapshot stream:
// ...") from that check, so the error vocabulary stays with its owner.
// remaining() is what bounds-from-the-bytes checks use: a count read from
// a header is checked against the bytes that could actually hold it
// before anything is allocated.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace pfp::util {

/// Writes `v` little-endian at `p` and returns the byte after it: the
/// fast path for an encoder that sized its output up front.
template <typename T>
inline std::uint8_t* store_le(std::uint8_t* p, T v) {
  static_assert(std::is_unsigned_v<T>);
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, sizeof(T));  // one store, not a byte loop
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      p[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }
  return p + sizeof(T);
}

/// Reads a little-endian `T` at `p` (bounds are the caller's).
template <typename T>
inline T load_le(const std::uint8_t* p) {
  static_assert(std::is_unsigned_v<T>);
  T v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof(T));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | static_cast<T>(static_cast<T>(p[i]) << (8 * i)));
    }
  }
  return v;
}

/// Overwrites sizeof(T) bytes at `at` with `v` — how a length prefix or
/// frame header written as a placeholder is filled in once the bytes it
/// counts have been appended.
template <typename T>
inline void patch_le(std::vector<std::uint8_t>& out, std::size_t at, T v) {
  store_le(out.data() + at, v);
}

template <typename T>
inline void put_le(std::vector<std::uint8_t>& out, T v) {
  const std::size_t at = out.size();
  out.resize(at + sizeof(T));
  store_le(out.data() + at, v);
}

inline void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}
inline void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  put_le(out, v);
}
inline void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  put_le(out, v);
}
inline void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  put_le(out, v);
}
inline void put_i64(std::vector<std::uint8_t>& out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}
inline void put_f64(std::vector<std::uint8_t>& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}
inline void put_bytes(std::vector<std::uint8_t>& out,
                      std::span<const std::uint8_t> bytes) {
  out.insert(out.end(), bytes.begin(), bytes.end());
}
/// u16 length-prefixed string; anything past 65535 bytes is cut off.
inline void put_string(std::vector<std::uint8_t>& out, std::string_view s) {
  const std::size_t len = std::min<std::size_t>(s.size(), 0xffff);
  put_u16(out, static_cast<std::uint16_t>(len));
  out.insert(out.end(), s.begin(),
             s.begin() + static_cast<std::ptrdiff_t>(len));
}

/// Bounds-checked little-endian cursor over a byte span.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] std::uint8_t read_u8() { return read_le<std::uint8_t>(); }
  [[nodiscard]] std::uint16_t read_u16() { return read_le<std::uint16_t>(); }
  [[nodiscard]] std::uint32_t read_u32() { return read_le<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t read_u64() { return read_le<std::uint64_t>(); }
  [[nodiscard]] std::int64_t read_i64() {
    return static_cast<std::int64_t>(read_u64());
  }
  [[nodiscard]] double read_f64() { return std::bit_cast<double>(read_u64()); }
  /// Reads `n` raw bytes as a view into the span; empty (with ok()
  /// latched false) on overrun.
  [[nodiscard]] std::span<const std::uint8_t> read_bytes(std::size_t n) {
    if (!take(n)) {
      return {};
    }
    const auto view = data_.subspan(pos_, n);
    pos_ += n;
    return view;
  }
  /// u16 length-prefixed string.
  [[nodiscard]] std::string read_string() {
    const auto bytes = read_bytes(read_u16());
    return std::string(bytes.begin(), bytes.end());
  }
  /// Consumes `magic.size()` bytes; true when they equal `magic`.
  [[nodiscard]] bool read_magic(std::span<const char> magic) {
    const auto bytes = read_bytes(magic.size());
    return ok() && std::equal(bytes.begin(), bytes.end(), magic.begin(),
                              [](std::uint8_t b, char c) {
                                return b == static_cast<std::uint8_t>(c);
                              });
  }

  [[nodiscard]] bool ok() const noexcept { return ok_; }
  /// True when every byte was consumed without an overrun (parsers use
  /// this to reject trailing garbage).
  [[nodiscard]] bool exhausted() const noexcept {
    return ok_ && pos_ == data_.size();
  }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }

 private:
  [[nodiscard]] bool take(std::size_t n) {
    if (!ok_ || data_.size() - pos_ < n) {
      ok_ = false;
      pos_ = data_.size();
      return false;
    }
    return true;
  }

  template <typename T>
  [[nodiscard]] T read_le() {
    if (!take(sizeof(T))) {
      return 0;
    }
    const T v = load_le<T>(data_.data() + pos_);
    pos_ += sizeof(T);
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace pfp::util
