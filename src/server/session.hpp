// One client's protocol session: the transport-independent half of the
// server.
//
// A Session owns the byte-stream reassembly buffer and the reply queue
// for one connection.  The socket event loop (server.cpp) feeds it raw
// reads via ingest() and flushes out(); the protocol-fuzz harness
// (fuzz.cpp) feeds it mutated corpora directly, so the fuzzed code path
// IS the production code path — there is no separate "test decoder".
//
// Request handling is synchronous and in arrival order.  Tenant state is
// touched only under the tenant's own mutex (engine/tenant_registry.hpp),
// so many sessions can drive distinct tenants in parallel while one
// tenant driven from many sessions still sees a single total order.
//
// Error discipline (docs/server.md, "Errors"): framing errors that make
// the stream un-resyncable (bad magic/version, implausible length) emit
// one kError frame and latch fatal() — the transport should flush and
// close.  Everything else (unknown type, short payload, absent tenant,
// over-limit batch, ...) gets a typed kError reply and the session keeps
// going.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "engine/config.hpp"
#include "engine/tenant_registry.hpp"
#include "server/wire.hpp"

namespace pfp::server {

/// Largest buffer pool one TENANT_OPEN may ask for, summed over its
/// shards (cache_blocks * max(shards, 1)).  The wire carries a u64, and
/// the engine allocates the whole pool at open, so an unchecked request
/// is a one-frame way to exhaust the server's memory.  Far above what
/// any real tenant here uses (servebench and load_gen open 1024-block
/// tenants).
inline constexpr std::uint64_t kMaxTenantCacheBlocks = std::uint64_t{1} << 20;

struct SessionConfig {
  /// Hard per-frame batch bound: an ACCESS_MANY with more blocks is
  /// rejected with kBackpressure (split and retry).  Deterministic by
  /// design — the reject depends only on the frame, never on load.
  std::size_t max_batch = 1u << 16;
  /// Advisory threshold: replies carry kFlagBackpressure once the
  /// busiest shard ring of the addressed tenant is this full (reads the
  /// queue-occupancy gauges; plain tenants never trip it).
  double pressure_threshold = 0.75;
  /// Engine fields TENANT_OPEN does not carry (timing model, obs knobs)
  /// come from this template; the request supplies cache size, policy
  /// and shard count.
  engine::EngineConfig base_engine;
};

/// engine::Metrics -> WireMetrics, field for field: the STATS reply
/// payload.  Public so load_gen's --verify-replay compares the served
/// stream against an in-process replay through the exact projection the
/// server uses.
[[nodiscard]] wire::WireMetrics to_wire_metrics(const engine::Metrics& m);

class Session {
 public:
  Session(engine::TenantRegistry& registry, const SessionConfig& config)
      : registry_(registry), config_(config) {}

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Feeds bytes off the wire; decodes and handles every complete frame,
  /// appending replies to out().  Returns false once the session is
  /// fatal (the kError reply is already queued; flush then close).
  bool ingest(std::span<const std::uint8_t> bytes);

  /// Reply bytes awaiting transmission; the transport consumes a prefix
  /// and calls consumed() with how much it wrote.  The view is
  /// invalidated by the next ingest() or consumed().
  [[nodiscard]] std::span<const std::uint8_t> out() const noexcept {
    return std::span<const std::uint8_t>(out_).subspan(out_head_);
  }
  /// Advances past `bytes` sent bytes.  Draining a large reply in
  /// socket-write steps is linear: the queue keeps a head offset and
  /// compacts only once it empties or the head passes its middle.
  void consumed(std::size_t bytes);

  [[nodiscard]] bool fatal() const noexcept { return fatal_; }

  /// Frees the tenants this session's TENANT_CLOSE frames unlinked.  A
  /// close only unlinks the tenant and queues the reply; the transport
  /// calls this once the reply is written, so freeing a multi-MB
  /// predictor never delays it.  The next ingest() frees them too.
  void release_closed() noexcept { closed_.clear(); }

  /// Frames handled since construction (fuzz/test instrumentation).
  [[nodiscard]] std::uint64_t frames_handled() const noexcept {
    return frames_handled_;
  }
  /// kError replies emitted (recoverable and fatal).
  [[nodiscard]] std::uint64_t errors_sent() const noexcept {
    return errors_sent_;
  }

 private:
  void handle_frame(const wire::Frame& frame);
  [[nodiscard]] static wire::FrameHeader reply_header(
      const wire::FrameHeader& request, wire::MsgType type,
      std::uint8_t flags);
  /// Queues a reply with no payload.  Replies with a payload are encoded
  /// straight into out_ between wire::begin_frame and wire::end_frame.
  void reply(const wire::FrameHeader& request, wire::MsgType type);
  void reply_error(const wire::FrameHeader& request, wire::ErrorCode code,
                   std::string_view detail);

  // Per-type handlers; `tenant` is pre-resolved for the tenant-scoped ops.
  void handle_tenant_open(const wire::Frame& frame);
  void handle_tenant_close(const wire::Frame& frame);
  /// ACCESS and ACCESS_MANY; only the payload shape and reply type differ.
  void handle_access_many(const wire::Frame& frame, engine::Tenant& tenant);
  void handle_stats(const wire::Frame& frame, engine::Tenant& tenant);
  void handle_snapshot(const wire::Frame& frame, engine::Tenant& tenant);
  void handle_restore(const wire::Frame& frame, engine::Tenant& tenant);

  engine::TenantRegistry& registry_;
  SessionConfig config_;
  std::vector<std::uint8_t> in_;
  std::vector<std::uint8_t> out_;
  std::size_t out_head_ = 0;  ///< out_[0, out_head_) is already sent
  bool fatal_ = false;
  std::uint64_t frames_handled_ = 0;
  std::uint64_t errors_sent_ = 0;
  // Scratch batch buffer, reused across ACCESS/ACCESS_MANY frames.
  std::vector<trace::BlockId> batch_;
  /// Closed tenants awaiting release_closed().
  std::vector<std::shared_ptr<engine::Tenant>> closed_;
};

}  // namespace pfp::server
