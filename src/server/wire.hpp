// The prefetch-as-a-service binary wire protocol ("PFP1").
//
// Every message is one length-prefixed frame with a fixed 16-byte
// little-endian header:
//
//     offset  size  field
//     0       3     magic "PFP"
//     3       1     protocol version (currently 1)
//     4       1     message type (MsgType)
//     5       1     flags (reply: kFlagBackpressure, kFlagAsync)
//     6       2     tenant id (u16; client-chosen at TENANT_OPEN)
//     8       4     payload length (u32; 0..kMaxPayload)
//     12      4     serial (u32; echoed verbatim in the reply)
//
// followed by `payload length` bytes of type-specific payload.  All
// integers are little-endian; doubles travel as bit-cast u64 — this is
// util/binary_io.hpp's codec, the one every snapshot format uses, so a
// RESTORE payload decodes zero-copy inside the event loop.
//
// Error handling is typed and total: a malformed header (bad magic /
// version / oversized length) is connection-fatal — the server replies
// kError and closes, because the byte stream can no longer be re-synced.
// A well-framed but malformed request (unknown type, payload length
// mismatch, unopened tenant, ...) gets a kError reply naming the
// ErrorCode and the connection continues.  docs/server.md carries the
// full frame diagrams and the per-type payload tables.
//
// Layering: src/server/ may include engine/, obs/ and util/ only; this
// codec deliberately speaks raw u64 block ids so it depends on neither
// (enforced by scripts/lint/check_conventions.py).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/binary_io.hpp"

namespace pfp::server::wire {

inline constexpr std::size_t kHeaderSize = 16;
inline constexpr std::uint8_t kMagic[3] = {'P', 'F', 'P'};
inline constexpr std::uint8_t kVersion = 1;
/// Hard payload bound; a length above this can only be garbage (or an
/// attack) and is connection-fatal.  Snapshots of large tenants are the
/// biggest legitimate frames.
inline constexpr std::uint32_t kMaxPayload = 64u << 20;

enum class MsgType : std::uint8_t {
  // Requests.
  kAccess = 0x01,      ///< u64 block
  kAccessMany = 0x02,  ///< u32 count + count x u64 blocks
  kStats = 0x03,       ///< (empty)
  kSnapshot = 0x04,    ///< (empty)
  kRestore = 0x05,     ///< PFEG blob
  kTenantOpen = 0x06,  ///< TenantOpenRequest
  kTenantClose = 0x07, ///< (empty)
  kPing = 0x08,        ///< (empty; liveness + RTT probe)
  // Replies (request type | 0x80).
  kAccessReply = 0x81,
  kAccessManyReply = 0x82,
  kStatsReply = 0x83,
  kSnapshotReply = 0x84,
  kRestoreReply = 0x85,
  kTenantOpenReply = 0x86,
  kTenantCloseReply = 0x87,
  kPingReply = 0x88,
  kError = 0xFF,  ///< u16 ErrorCode + u16 detail length + detail text
};

/// Reply-header flag bits.
inline constexpr std::uint8_t kFlagBackpressure = 0x01;
/// Set on ACCESS_MANY replies from sharded tenants: the batch was
/// accepted and routed, but per-batch hit/miss counts are not yet known
/// (the shard workers run asynchronously); the counts in the reply are
/// zero and STATS is the source of truth.
inline constexpr std::uint8_t kFlagAsync = 0x02;

enum class ErrorCode : std::uint16_t {
  kBadMagic = 1,       ///< connection-fatal
  kBadVersion = 2,     ///< connection-fatal
  kOversized = 3,      ///< connection-fatal (cannot re-sync the stream)
  kUnknownType = 4,
  kBadPayload = 5,     ///< length/content mismatch inside the payload
  kNoSuchTenant = 6,
  kTenantExists = 7,
  kBadConfig = 8,      ///< TENANT_OPEN rejected by engine::validate
  kBadSnapshot = 9,    ///< RESTORE blob rejected; tenant state unchanged
  kBackpressure = 10,  ///< batch exceeds max_batch; split and retry
  kUnsupported = 11,   ///< operation not available for this tenant kind
  kInternal = 12,
};

/// Stable name for an ErrorCode ("no-such-tenant", ...).
[[nodiscard]] std::string_view error_name(ErrorCode code);

struct FrameHeader {
  MsgType type = MsgType::kPing;
  std::uint8_t flags = 0;
  std::uint16_t tenant = 0;
  std::uint32_t payload_len = 0;
  std::uint32_t serial = 0;
};

/// One decoded frame; `payload` views the caller's buffer and is only
/// valid until that buffer is mutated.
struct Frame {
  FrameHeader header;
  std::span<const std::uint8_t> payload;
};

enum class DecodeStatus {
  kNeedMore,  ///< the buffer holds a frame prefix; read more bytes
  kFrame,     ///< `frame` is valid, `consumed` bytes may be discarded
  kError,     ///< connection-fatal framing error (see `error`)
};

struct DecodeResult {
  DecodeStatus status = DecodeStatus::kNeedMore;
  Frame frame;
  std::size_t consumed = 0;
  ErrorCode error = ErrorCode::kInternal;
};

/// Attempts to decode one frame from the front of `buf`.  Never throws;
/// never reads past `buf`.  kError means the stream is unrecoverable
/// (bad magic/version or an implausible length) — the caller should send
/// a kError reply if it still can, then close.
[[nodiscard]] DecodeResult decode(std::span<const std::uint8_t> buf);

// --- encode side --------------------------------------------------------

/// Appends one complete frame (header + payload) to `out`.
void append_frame(std::vector<std::uint8_t>& out, const FrameHeader& header,
                  std::span<const std::uint8_t> payload);

/// Reserves a frame header at the end of `out` and returns its offset;
/// the caller appends the payload straight into `out`, then end_frame()
/// writes the header with the payload length.  This is how a
/// multi-megabyte SNAPSHOT reply is encoded without a staging copy.
[[nodiscard]] std::size_t begin_frame(std::vector<std::uint8_t>& out);
void end_frame(std::vector<std::uint8_t>& out, std::size_t at,
               const FrameHeader& header);

/// The payload-building vocabulary is util/binary_io.hpp's codec.
using util::put_f64;
using util::put_string;
using util::put_u16;
using util::put_u32;
using util::put_u64;
using Reader = util::ByteReader;

// --- typed payloads -----------------------------------------------------

/// TENANT_OPEN request payload.
struct TenantOpenRequest {
  std::string name;        ///< metrics label; non-empty, <= 255 bytes
  std::string policy;      ///< core::policy kind name ("tree", "markov", ...)
  std::uint64_t cache_blocks = 1024;
  /// 0 or 1 = one PrefetchEngine; >= 2 = a ShardedEngine with this many
  /// shards (run-routed, so each shard sees contiguous stream runs).
  std::uint32_t shards = 0;
};

void encode_tenant_open(std::vector<std::uint8_t>& out,
                        const TenantOpenRequest& req);
[[nodiscard]] std::optional<TenantOpenRequest> parse_tenant_open(
    std::span<const std::uint8_t> payload);

/// STATS reply payload: the engine's full deterministic Metrics, every
/// field bit-exact, so a client can compare a served stream against an
/// in-process replay with EXPECT_EQ semantics (the server-integration CI
/// leg does exactly that).
struct WireMetrics {
  std::uint64_t accesses = 0;
  std::uint64_t demand_hits = 0;
  std::uint64_t prefetch_hits = 0;
  std::uint64_t misses = 0;
  double elapsed_ms = 0.0;
  double stall_ms = 0.0;
  double disk_queue_delay_ms = 0.0;
  std::uint64_t disk_requests = 0;
  // core::policy::PolicyMetrics, field for field.
  std::uint64_t prefetches_issued = 0;
  std::uint64_t obl_prefetches_issued = 0;
  std::uint64_t tree_prefetches_issued = 0;
  double sum_prefetch_probability = 0.0;
  std::uint64_t candidates_chosen = 0;
  std::uint64_t candidates_already_cached = 0;
  std::uint64_t prefetch_ejections = 0;
  std::uint64_t demand_ejections = 0;
  std::uint64_t predictable = 0;
  std::uint64_t predictable_uncached = 0;
  std::uint64_t lvc_opportunities = 0;
  std::uint64_t lvc_followed = 0;
  std::uint64_t lvc_checks = 0;
  std::uint64_t lvc_cached = 0;
  std::uint64_t tree_nodes = 0;
  std::uint64_t tree_bytes = 0;

  bool operator==(const WireMetrics&) const = default;
};

void encode_metrics(std::vector<std::uint8_t>& out, const WireMetrics& m);
[[nodiscard]] std::optional<WireMetrics> parse_metrics(
    std::span<const std::uint8_t> payload);

/// ACCESS_MANY reply payload.
struct BatchReply {
  std::uint64_t demand_hits = 0;
  std::uint64_t prefetch_hits = 0;
  std::uint64_t misses = 0;
  double latency_ms = 0.0;
};

void encode_batch_reply(std::vector<std::uint8_t>& out, const BatchReply& r);
[[nodiscard]] std::optional<BatchReply> parse_batch_reply(
    std::span<const std::uint8_t> payload);

/// kError payload.
struct ErrorReply {
  ErrorCode code = ErrorCode::kInternal;
  std::string detail;
};

void encode_error(std::vector<std::uint8_t>& out, const ErrorReply& e);
[[nodiscard]] std::optional<ErrorReply> parse_error(
    std::span<const std::uint8_t> payload);

}  // namespace pfp::server::wire
