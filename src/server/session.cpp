#include "server/session.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "util/thread_annotations.hpp"

namespace pfp::server {

namespace {

wire::ErrorCode to_wire(engine::TenantStatus status) {
  switch (status) {
    case engine::TenantStatus::kExists:
      return wire::ErrorCode::kTenantExists;
    case engine::TenantStatus::kNoSuchTenant:
      return wire::ErrorCode::kNoSuchTenant;
    case engine::TenantStatus::kBadConfig:
      return wire::ErrorCode::kBadConfig;
    case engine::TenantStatus::kBadSnapshot:
      return wire::ErrorCode::kBadSnapshot;
    case engine::TenantStatus::kUnsupported:
      return wire::ErrorCode::kUnsupported;
    case engine::TenantStatus::kOk:
      break;
  }
  return wire::ErrorCode::kInternal;
}

}  // namespace

wire::WireMetrics to_wire_metrics(const engine::Metrics& m) {
  wire::WireMetrics w;
  w.accesses = m.accesses;
  w.demand_hits = m.demand_hits;
  w.prefetch_hits = m.prefetch_hits;
  w.misses = m.misses;
  w.elapsed_ms = m.elapsed_ms;
  w.stall_ms = m.stall_ms;
  w.disk_queue_delay_ms = m.disk_queue_delay_ms;
  w.disk_requests = m.disk_requests;
  w.prefetches_issued = m.policy.prefetches_issued;
  w.obl_prefetches_issued = m.policy.obl_prefetches_issued;
  w.tree_prefetches_issued = m.policy.tree_prefetches_issued;
  w.sum_prefetch_probability = m.policy.sum_prefetch_probability;
  w.candidates_chosen = m.policy.candidates_chosen;
  w.candidates_already_cached = m.policy.candidates_already_cached;
  w.prefetch_ejections = m.policy.prefetch_ejections;
  w.demand_ejections = m.policy.demand_ejections;
  w.predictable = m.policy.predictable;
  w.predictable_uncached = m.policy.predictable_uncached;
  w.lvc_opportunities = m.policy.lvc_opportunities;
  w.lvc_followed = m.policy.lvc_followed;
  w.lvc_checks = m.policy.lvc_checks;
  w.lvc_cached = m.policy.lvc_cached;
  w.tree_nodes = m.policy.tree_nodes;
  w.tree_bytes = m.policy.tree_bytes;
  return w;
}

bool Session::ingest(std::span<const std::uint8_t> bytes) {
  release_closed();
  if (fatal_) {
    return false;
  }
  in_.insert(in_.end(), bytes.begin(), bytes.end());
  std::size_t pos = 0;
  while (!fatal_) {
    const wire::DecodeResult result = wire::decode(
        std::span<const std::uint8_t>(in_).subspan(pos));
    if (result.status == wire::DecodeStatus::kNeedMore) {
      break;
    }
    if (result.status == wire::DecodeStatus::kError) {
      // The stream cannot be re-synced; name the reason and latch fatal.
      fatal_ = true;
      reply_error(wire::FrameHeader{}, result.error,
                  "connection-fatal framing error");
      break;
    }
    handle_frame(result.frame);
    pos += result.consumed;
  }
  if (pos > 0) {
    in_.erase(in_.begin(),
              in_.begin() + static_cast<std::ptrdiff_t>(pos));
  }
  return !fatal_;
}

void Session::consumed(std::size_t bytes) {
  out_head_ += std::min(bytes, out_.size() - out_head_);
  if (out_head_ == out_.size()) {
    out_.clear();
    out_head_ = 0;
  } else if (out_head_ > out_.size() / 2) {
    // Each compaction moves fewer bytes than were sent since the last
    // one, so a drain costs O(reply size) in total.
    out_.erase(out_.begin(),
               out_.begin() + static_cast<std::ptrdiff_t>(out_head_));
    out_head_ = 0;
  }
}

wire::FrameHeader Session::reply_header(const wire::FrameHeader& request,
                                        wire::MsgType type,
                                        std::uint8_t flags) {
  wire::FrameHeader header;
  header.type = type;
  header.flags = flags;
  header.tenant = request.tenant;
  header.serial = request.serial;
  return header;
}

void Session::reply(const wire::FrameHeader& request, wire::MsgType type) {
  wire::append_frame(out_, reply_header(request, type, 0), {});
}

void Session::reply_error(const wire::FrameHeader& request,
                          wire::ErrorCode code, std::string_view detail) {
  const std::size_t at = wire::begin_frame(out_);
  wire::encode_error(out_, wire::ErrorReply{code, std::string(detail)});
  wire::end_frame(out_, at, reply_header(request, wire::MsgType::kError, 0));
  ++errors_sent_;
}

void Session::handle_frame(const wire::Frame& frame) {
  ++frames_handled_;
  const wire::FrameHeader& h = frame.header;
  switch (h.type) {
    case wire::MsgType::kPing:
      if (!frame.payload.empty()) {
        reply_error(h, wire::ErrorCode::kBadPayload,
                    "PING carries no payload");
        return;
      }
      reply(h, wire::MsgType::kPingReply);
      return;
    case wire::MsgType::kTenantOpen:
      handle_tenant_open(frame);
      return;
    case wire::MsgType::kTenantClose:
      handle_tenant_close(frame);
      return;
    case wire::MsgType::kAccess:
    case wire::MsgType::kAccessMany:
    case wire::MsgType::kStats:
    case wire::MsgType::kSnapshot:
    case wire::MsgType::kRestore:
      break;
    default:
      reply_error(h, wire::ErrorCode::kUnknownType,
                  "unknown or reply-typed message");
      return;
  }

  const std::shared_ptr<engine::Tenant> tenant = registry_.find(h.tenant);
  if (tenant == nullptr) {
    reply_error(h, wire::ErrorCode::kNoSuchTenant, "tenant id not open");
    return;
  }
  switch (h.type) {
    case wire::MsgType::kAccess:
    case wire::MsgType::kAccessMany:
      handle_access_many(frame, *tenant);
      return;
    case wire::MsgType::kStats:
      handle_stats(frame, *tenant);
      return;
    case wire::MsgType::kSnapshot:
      handle_snapshot(frame, *tenant);
      return;
    case wire::MsgType::kRestore:
      handle_restore(frame, *tenant);
      return;
    default:
      reply_error(h, wire::ErrorCode::kInternal, "unreachable dispatch");
      return;
  }
}

void Session::handle_tenant_open(const wire::Frame& frame) {
  const auto request = wire::parse_tenant_open(frame.payload);
  if (!request.has_value()) {
    reply_error(frame.header, wire::ErrorCode::kBadPayload,
                "malformed TENANT_OPEN payload");
    return;
  }
  const std::uint64_t shards = std::max<std::uint64_t>(request->shards, 1);
  if (request->cache_blocks > kMaxTenantCacheBlocks / shards) {
    reply_error(frame.header, wire::ErrorCode::kBadConfig,
                "cache_blocks " + std::to_string(request->cache_blocks) +
                    " x " + std::to_string(shards) +
                    " shard(s) exceeds the per-tenant limit of " +
                    std::to_string(kMaxTenantCacheBlocks) + " blocks");
    return;
  }
  engine::TenantConfig config;
  config.name = request->name;
  config.engine = config_.base_engine;
  config.engine.cache_blocks =
      static_cast<std::size_t>(request->cache_blocks);
  config.shards = request->shards;
  std::string detail;
  engine::TenantStatus status =
      engine::set_policy_by_name(config, request->policy, &detail);
  if (status != engine::TenantStatus::kOk) {
    reply_error(frame.header, to_wire(status), detail);
    return;
  }
  status = registry_.open(frame.header.tenant, std::move(config), &detail);
  if (status != engine::TenantStatus::kOk) {
    reply_error(frame.header, to_wire(status), detail);
    return;
  }
  reply(frame.header, wire::MsgType::kTenantOpenReply);
}

void Session::handle_tenant_close(const wire::Frame& frame) {
  if (!frame.payload.empty()) {
    reply_error(frame.header, wire::ErrorCode::kBadPayload,
                "TENANT_CLOSE carries no payload");
    return;
  }
  // Hold a reference across the close so the tenant is freed by
  // release_closed(), after the reply, not inside close().
  std::shared_ptr<engine::Tenant> tenant = registry_.find(frame.header.tenant);
  const engine::TenantStatus status = registry_.close(frame.header.tenant);
  if (status != engine::TenantStatus::kOk) {
    reply_error(frame.header, to_wire(status), "tenant id not open");
    return;
  }
  closed_.push_back(std::move(tenant));
  reply(frame.header, wire::MsgType::kTenantCloseReply);
}

void Session::handle_access_many(const wire::Frame& frame,
                                 engine::Tenant& tenant) {
  // ACCESS is an ACCESS_MANY of one without the count: both decode into
  // batch_, take one engine call and share one reply path.
  const bool many = frame.header.type == wire::MsgType::kAccessMany;
  wire::Reader reader(frame.payload);
  batch_.clear();
  if (many) {
    const std::uint32_t count = reader.read_u32();
    if (!reader.ok() || reader.remaining() != std::size_t{count} * 8) {
      reply_error(frame.header, wire::ErrorCode::kBadPayload,
                  "ACCESS_MANY count does not match payload length");
      return;
    }
    if (count > config_.max_batch) {
      // Hard, deterministic reject: depends only on the frame, never on
      // load, so a client can size batches once and trust them forever.
      reply_error(frame.header, wire::ErrorCode::kBackpressure,
                  "batch exceeds max_batch; split and retry");
      return;
    }
    batch_.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      batch_.push_back(reader.read_u64());
    }
  } else {
    batch_.push_back(reader.read_u64());
    if (!reader.exhausted()) {
      reply_error(frame.header, wire::ErrorCode::kBadPayload,
                  "ACCESS payload is one u64 block id");
      return;
    }
  }
  engine::BatchResult result;
  {
    util::MutexLock lock(tenant.mu());
    result = tenant.access_many(batch_);
  }
  std::uint8_t flags = 0;
  if (tenant.sharded()) {
    // Routed asynchronously; the counts stay zero until STATS flushes.
    flags |= wire::kFlagAsync;
  }
  if (tenant.queue_pressure() >= config_.pressure_threshold) {
    flags |= wire::kFlagBackpressure;
  }
  const std::size_t at = wire::begin_frame(out_);
  wire::encode_batch_reply(
      out_, wire::BatchReply{result.demand_hits, result.prefetch_hits,
                             result.misses, result.latency_ms});
  wire::end_frame(
      out_, at,
      reply_header(frame.header,
                   many ? wire::MsgType::kAccessManyReply
                        : wire::MsgType::kAccessReply,
                   flags));
}

void Session::handle_stats(const wire::Frame& frame,
                           engine::Tenant& tenant) {
  if (!frame.payload.empty()) {
    reply_error(frame.header, wire::ErrorCode::kBadPayload,
                "STATS carries no payload");
    return;
  }
  engine::Metrics metrics;
  {
    util::MutexLock lock(tenant.mu());
    metrics = tenant.metrics();
  }
  const std::size_t at = wire::begin_frame(out_);
  wire::encode_metrics(out_, to_wire_metrics(metrics));
  wire::end_frame(out_, at,
                  reply_header(frame.header, wire::MsgType::kStatsReply, 0));
}

void Session::handle_snapshot(const wire::Frame& frame,
                              engine::Tenant& tenant) {
  if (!frame.payload.empty()) {
    reply_error(frame.header, wire::ErrorCode::kBadPayload,
                "SNAPSHOT carries no payload");
    return;
  }
  // The image is encoded straight into the reply queue behind a
  // reserved header, which is filled in once its length is known.
  const std::size_t at = wire::begin_frame(out_);
  std::string detail;
  engine::TenantStatus status;
  {
    util::MutexLock lock(tenant.mu());
    status = tenant.snapshot(out_, &detail);
  }
  if (status != engine::TenantStatus::kOk) {
    out_.resize(at);
    reply_error(frame.header, to_wire(status), detail);
    return;
  }
  if (out_.size() - at - wire::kHeaderSize > wire::kMaxPayload) {
    out_.resize(at);
    reply_error(frame.header, wire::ErrorCode::kInternal,
                "snapshot exceeds the frame payload bound");
    return;
  }
  wire::end_frame(out_, at,
                  reply_header(frame.header, wire::MsgType::kSnapshotReply, 0));
}

void Session::handle_restore(const wire::Frame& frame,
                             engine::Tenant& tenant) {
  std::string detail;
  engine::TenantStatus status;
  {
    util::MutexLock lock(tenant.mu());
    status = tenant.restore(frame.payload, &detail);
  }
  if (status != engine::TenantStatus::kOk) {
    reply_error(frame.header, to_wire(status), detail);
    return;
  }
  reply(frame.header, wire::MsgType::kRestoreReply);
}

}  // namespace pfp::server
