#include "server/wire.hpp"

#include <algorithm>
#include <cstring>
#include <iterator>

namespace pfp::server::wire {

namespace {

constexpr std::size_t kMaxTenantName = 255;

bool known_type(std::uint8_t t) {
  switch (static_cast<MsgType>(t)) {
    case MsgType::kAccess:
    case MsgType::kAccessMany:
    case MsgType::kStats:
    case MsgType::kSnapshot:
    case MsgType::kRestore:
    case MsgType::kTenantOpen:
    case MsgType::kTenantClose:
    case MsgType::kPing:
    case MsgType::kAccessReply:
    case MsgType::kAccessManyReply:
    case MsgType::kStatsReply:
    case MsgType::kSnapshotReply:
    case MsgType::kRestoreReply:
    case MsgType::kTenantOpenReply:
    case MsgType::kTenantCloseReply:
    case MsgType::kPingReply:
    case MsgType::kError:
      return true;
  }
  return false;
}

}  // namespace

std::string_view error_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kBadMagic:
      return "bad-magic";
    case ErrorCode::kBadVersion:
      return "bad-version";
    case ErrorCode::kOversized:
      return "oversized";
    case ErrorCode::kUnknownType:
      return "unknown-type";
    case ErrorCode::kBadPayload:
      return "bad-payload";
    case ErrorCode::kNoSuchTenant:
      return "no-such-tenant";
    case ErrorCode::kTenantExists:
      return "tenant-exists";
    case ErrorCode::kBadConfig:
      return "bad-config";
    case ErrorCode::kBadSnapshot:
      return "bad-snapshot";
    case ErrorCode::kBackpressure:
      return "backpressure";
    case ErrorCode::kUnsupported:
      return "unsupported";
    case ErrorCode::kInternal:
      return "internal";
  }
  return "unknown";
}

DecodeResult decode(std::span<const std::uint8_t> buf) {
  DecodeResult result;
  if (buf.size() < kHeaderSize) {
    // A partial header can already be provably garbage: reject a wrong
    // magic/version prefix without waiting for bytes that will never
    // make it valid.
    const std::size_t check = buf.size() < 4 ? buf.size() : 4;
    for (std::size_t i = 0; i < check && i < 3; ++i) {
      if (buf[i] != kMagic[i]) {
        result.status = DecodeStatus::kError;
        result.error = ErrorCode::kBadMagic;
        return result;
      }
    }
    if (buf.size() >= 4 && buf[3] != kVersion) {
      result.status = DecodeStatus::kError;
      result.error = ErrorCode::kBadVersion;
      return result;
    }
    result.status = DecodeStatus::kNeedMore;
    return result;
  }
  if (std::memcmp(buf.data(), kMagic, 3) != 0) {
    result.status = DecodeStatus::kError;
    result.error = ErrorCode::kBadMagic;
    return result;
  }
  if (buf[3] != kVersion) {
    result.status = DecodeStatus::kError;
    result.error = ErrorCode::kBadVersion;
    return result;
  }
  Reader r(buf.subspan(4, kHeaderSize - 4));
  FrameHeader header;
  header.type = static_cast<MsgType>(r.read_u8());
  header.flags = r.read_u8();
  header.tenant = r.read_u16();
  header.payload_len = r.read_u32();
  header.serial = r.read_u32();
  if (header.payload_len > kMaxPayload) {
    // The framing itself is intact but the declared length is beyond
    // anything this protocol produces; skipping it would stall the
    // connection for up to 4 GiB of garbage, so treat it as fatal.
    result.status = DecodeStatus::kError;
    result.error = ErrorCode::kOversized;
    return result;
  }
  const std::size_t total = kHeaderSize + header.payload_len;
  if (buf.size() < total) {
    result.status = DecodeStatus::kNeedMore;
    return result;
  }
  // An unknown type is NOT a framing error: the length field still
  // tells us where the frame ends, so the caller can reply kUnknownType
  // and keep the connection.  The handler makes that decision; decode
  // just hands the frame through.
  (void)known_type(static_cast<std::uint8_t>(header.type));
  result.status = DecodeStatus::kFrame;
  result.frame.header = header;
  result.frame.payload = buf.subspan(kHeaderSize, header.payload_len);
  result.consumed = total;
  return result;
}

void append_frame(std::vector<std::uint8_t>& out, const FrameHeader& header,
                  std::span<const std::uint8_t> payload) {
  const std::size_t at = begin_frame(out);
  util::put_bytes(out, payload);
  end_frame(out, at, header);
}

std::size_t begin_frame(std::vector<std::uint8_t>& out) {
  const std::size_t at = out.size();
  out.resize(at + kHeaderSize);
  return at;
}

void end_frame(std::vector<std::uint8_t>& out, std::size_t at,
               const FrameHeader& header) {
  std::copy(std::begin(kMagic), std::end(kMagic),
            out.begin() + static_cast<std::ptrdiff_t>(at));
  out[at + 3] = kVersion;
  out[at + 4] = static_cast<std::uint8_t>(header.type);
  out[at + 5] = header.flags;
  util::patch_le(out, at + 6, header.tenant);
  util::patch_le(out, at + 8,
                 static_cast<std::uint32_t>(out.size() - at - kHeaderSize));
  util::patch_le(out, at + 12, header.serial);
}

void encode_tenant_open(std::vector<std::uint8_t>& out,
                        const TenantOpenRequest& req) {
  put_string(out, req.name);
  put_string(out, req.policy);
  put_u64(out, req.cache_blocks);
  put_u32(out, req.shards);
}

std::optional<TenantOpenRequest> parse_tenant_open(
    std::span<const std::uint8_t> payload) {
  Reader r(payload);
  TenantOpenRequest req;
  req.name = r.read_string();
  req.policy = r.read_string();
  req.cache_blocks = r.read_u64();
  req.shards = r.read_u32();
  if (!r.exhausted() || req.name.empty() ||
      req.name.size() > kMaxTenantName || req.policy.empty()) {
    return std::nullopt;
  }
  return req;
}

void encode_metrics(std::vector<std::uint8_t>& out, const WireMetrics& m) {
  put_u64(out, m.accesses);
  put_u64(out, m.demand_hits);
  put_u64(out, m.prefetch_hits);
  put_u64(out, m.misses);
  put_f64(out, m.elapsed_ms);
  put_f64(out, m.stall_ms);
  put_f64(out, m.disk_queue_delay_ms);
  put_u64(out, m.disk_requests);
  put_u64(out, m.prefetches_issued);
  put_u64(out, m.obl_prefetches_issued);
  put_u64(out, m.tree_prefetches_issued);
  put_f64(out, m.sum_prefetch_probability);
  put_u64(out, m.candidates_chosen);
  put_u64(out, m.candidates_already_cached);
  put_u64(out, m.prefetch_ejections);
  put_u64(out, m.demand_ejections);
  put_u64(out, m.predictable);
  put_u64(out, m.predictable_uncached);
  put_u64(out, m.lvc_opportunities);
  put_u64(out, m.lvc_followed);
  put_u64(out, m.lvc_checks);
  put_u64(out, m.lvc_cached);
  put_u64(out, m.tree_nodes);
  put_u64(out, m.tree_bytes);
}

std::optional<WireMetrics> parse_metrics(
    std::span<const std::uint8_t> payload) {
  Reader r(payload);
  WireMetrics m;
  m.accesses = r.read_u64();
  m.demand_hits = r.read_u64();
  m.prefetch_hits = r.read_u64();
  m.misses = r.read_u64();
  m.elapsed_ms = r.read_f64();
  m.stall_ms = r.read_f64();
  m.disk_queue_delay_ms = r.read_f64();
  m.disk_requests = r.read_u64();
  m.prefetches_issued = r.read_u64();
  m.obl_prefetches_issued = r.read_u64();
  m.tree_prefetches_issued = r.read_u64();
  m.sum_prefetch_probability = r.read_f64();
  m.candidates_chosen = r.read_u64();
  m.candidates_already_cached = r.read_u64();
  m.prefetch_ejections = r.read_u64();
  m.demand_ejections = r.read_u64();
  m.predictable = r.read_u64();
  m.predictable_uncached = r.read_u64();
  m.lvc_opportunities = r.read_u64();
  m.lvc_followed = r.read_u64();
  m.lvc_checks = r.read_u64();
  m.lvc_cached = r.read_u64();
  m.tree_nodes = r.read_u64();
  m.tree_bytes = r.read_u64();
  if (!r.exhausted()) {
    return std::nullopt;
  }
  return m;
}

void encode_batch_reply(std::vector<std::uint8_t>& out, const BatchReply& r) {
  put_u64(out, r.demand_hits);
  put_u64(out, r.prefetch_hits);
  put_u64(out, r.misses);
  put_f64(out, r.latency_ms);
}

std::optional<BatchReply> parse_batch_reply(
    std::span<const std::uint8_t> payload) {
  Reader r(payload);
  BatchReply reply;
  reply.demand_hits = r.read_u64();
  reply.prefetch_hits = r.read_u64();
  reply.misses = r.read_u64();
  reply.latency_ms = r.read_f64();
  if (!r.exhausted()) {
    return std::nullopt;
  }
  return reply;
}

void encode_error(std::vector<std::uint8_t>& out, const ErrorReply& e) {
  put_u16(out, static_cast<std::uint16_t>(e.code));
  put_string(out, e.detail);
}

std::optional<ErrorReply> parse_error(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  ErrorReply e;
  e.code = static_cast<ErrorCode>(r.read_u16());
  e.detail = r.read_string();
  if (!r.exhausted()) {
    return std::nullopt;
  }
  return e;
}

}  // namespace pfp::server::wire
