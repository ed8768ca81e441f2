#include "server/fuzz.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "engine/prefetch_engine.hpp"
#include "engine/tenant_registry.hpp"
#include "server/session.hpp"
#include "server/wire.hpp"
#include "util/prng.hpp"

namespace pfp::server {

namespace {

/// The tenant id every case finds pre-opened (the "serving" tenant a
/// real server would have; mutated frames often still address it).
constexpr std::uint16_t kLiveTenant = 1;
constexpr std::size_t kLiveCacheBlocks = 64;

/// The live tenant's policy rotates through every predictor-blob family
/// (and one with no blob) so RESTORE frames reach each decoder.
constexpr std::array kLivePolicies = {
    core::policy::PolicyKind::kTreeNextLimit, core::policy::PolicyKind::kMarkov,
    core::policy::PolicyKind::kAssoc, core::policy::PolicyKind::kNoPrefetch};

engine::EngineConfig live_engine_config(std::uint64_t case_index) {
  engine::EngineConfig config;
  config.cache_blocks = kLiveCacheBlocks;
  config.policy.kind = kLivePolicies[case_index % kLivePolicies.size()];
  return config;
}

/// A real PFEG image of a small engine shaped like the live tenant,
/// trained on a short looping stream so the predictor blob is non-empty
/// yet the RESTORE frame stays well under FuzzOptions::max_case_bytes.
std::vector<std::uint8_t> trained_image(const engine::EngineConfig& config) {
  engine::PrefetchEngine eng(config);
  util::Xoshiro256 rng(config.cache_blocks);
  std::vector<trace::BlockId> stream;
  for (trace::BlockId i = 0; i < 256; ++i) {
    stream.push_back(rng.bernoulli(0.8) ? i % 8 : rng.below(16));
  }
  eng.access_many(stream);
  std::vector<std::uint8_t> image;
  eng.snapshot(image);
  return image;
}

/// Overwrites 1..8 random bytes with random values.
void flip_bytes(util::Xoshiro256& rng, std::vector<std::uint8_t>& bytes) {
  const std::uint64_t flips = rng.below(8) + 1;
  for (std::uint64_t i = 0; i < flips; ++i) {
    const std::uint64_t at = rng.below(bytes.size());
    bytes[at] = static_cast<std::uint8_t>(rng.next() & 0xff);
  }
}

/// Appends up to `max_bytes - 1` random bytes.
void append_garbage(util::Xoshiro256& rng, std::vector<std::uint8_t>& bytes,
                    std::uint64_t max_bytes) {
  const std::uint64_t n = rng.below(max_bytes);
  for (std::uint64_t i = 0; i < n; ++i) {
    bytes.push_back(static_cast<std::uint8_t>(rng.next() & 0xff));
  }
}

/// A RESTORE payload: the live tenant's real image, intact or deformed
/// the way generate_case deforms whole frames — byte flips, truncation,
/// or a garbage tail — so PrefetchEngine::restore and the predictor-blob
/// decoders see inputs past the magic.
std::vector<std::uint8_t> restore_payload(util::Xoshiro256& rng,
                                          std::span<const std::uint8_t> image) {
  std::vector<std::uint8_t> payload(image.begin(), image.end());
  switch (rng.below(4)) {
    case 0:  // intact
      break;
    case 1:
      flip_bytes(rng, payload);
      break;
    case 2:
      payload.resize(rng.below(payload.size()));
      break;
    default:
      append_garbage(rng, payload, 64);
      break;
  }
  return payload;
}

/// Builds one well-formed frame of a random type with a plausible
/// payload.  Values are bounded so even successful TENANT_OPENs stay
/// cheap (the harness runs thousands of cases under ASan).
std::vector<std::uint8_t> valid_frame(util::Xoshiro256& rng,
                                      std::span<const std::uint8_t> image) {
  std::vector<std::uint8_t> payload;
  wire::MsgType type = wire::MsgType::kPing;
  switch (rng.below(8)) {
    case 0:
      type = wire::MsgType::kPing;
      break;
    case 1:
      type = wire::MsgType::kStats;
      break;
    case 2:
      type = wire::MsgType::kTenantClose;
      break;
    case 3:
      type = wire::MsgType::kSnapshot;
      break;
    case 4:
      type = wire::MsgType::kAccess;
      wire::put_u64(payload, rng.next());
      break;
    case 5: {
      type = wire::MsgType::kAccessMany;
      const std::uint32_t count = static_cast<std::uint32_t>(rng.below(32));
      wire::put_u32(payload, count);
      for (std::uint32_t i = 0; i < count; ++i) {
        wire::put_u64(payload, rng.next());
      }
      break;
    }
    case 6: {
      type = wire::MsgType::kTenantOpen;
      wire::TenantOpenRequest request;
      request.name = "f";
      request.name += std::to_string(rng.below(16));
      // A mix of junk and (depending on the build's policy registry)
      // possibly-valid names; both outcomes are legal protocol.
      static constexpr const char* kNames[] = {"", "nope", "tree-paper",
                                               "markov", "no-prefetch"};
      request.policy = kNames[rng.below(5)];
      request.cache_blocks = rng.range(1, 2048);
      request.shards = static_cast<std::uint32_t>(rng.below(3));
      wire::encode_tenant_open(payload, request);
      break;
    }
    default:
      type = wire::MsgType::kRestore;
      payload = restore_payload(rng, image);
      break;
  }
  wire::FrameHeader header;
  header.type = type;
  header.tenant = rng.bernoulli(0.5)
                      ? kLiveTenant
                      : static_cast<std::uint16_t>(rng.below(4));
  header.serial = static_cast<std::uint32_t>(rng.next());
  std::vector<std::uint8_t> frame;
  wire::append_frame(frame, header, payload);
  return frame;
}

/// One corpus entry: valid frames, then a seeded deformation.
std::vector<std::uint8_t> generate_case(util::Xoshiro256& rng,
                                        const FuzzOptions& options,
                                        std::span<const std::uint8_t> image) {
  std::vector<std::uint8_t> bytes;
  switch (rng.below(8)) {
    case 0: {  // pure garbage
      const std::uint64_t n = rng.below(options.max_case_bytes) + 1;
      for (std::uint64_t i = 0; i < n; ++i) {
        bytes.push_back(static_cast<std::uint8_t>(rng.next() & 0xff));
      }
      break;
    }
    case 1: {  // 1..4 valid frames back to back
      const std::uint64_t frames = rng.below(4) + 1;
      for (std::uint64_t i = 0; i < frames; ++i) {
        const std::vector<std::uint8_t> frame = valid_frame(rng, image);
        bytes.insert(bytes.end(), frame.begin(), frame.end());
      }
      break;
    }
    case 2: {  // truncated valid frame
      bytes = valid_frame(rng, image);
      bytes.resize(rng.below(bytes.size()));
      break;
    }
    case 3: {  // oversized declared length (connection-fatal)
      bytes = valid_frame(rng, image);
      const std::uint32_t huge =
          wire::kMaxPayload + 1 +
          static_cast<std::uint32_t>(rng.below(1u << 20));
      bytes[8] = static_cast<std::uint8_t>(huge & 0xff);
      bytes[9] = static_cast<std::uint8_t>((huge >> 8) & 0xff);
      bytes[10] = static_cast<std::uint8_t>((huge >> 16) & 0xff);
      bytes[11] = static_cast<std::uint8_t>((huge >> 24) & 0xff);
      break;
    }
    case 4: {  // bad magic or version (connection-fatal)
      bytes = valid_frame(rng, image);
      const std::uint64_t at = rng.below(4);
      bytes[at] = static_cast<std::uint8_t>(bytes[at] ^
                                            (1u << rng.below(8)));
      break;
    }
    case 5: {  // declared length disagrees with the payload bytes sent
      bytes = valid_frame(rng, image);
      const std::uint32_t claim =
          static_cast<std::uint32_t>(rng.below(4096));
      bytes[8] = static_cast<std::uint8_t>(claim & 0xff);
      bytes[9] = static_cast<std::uint8_t>((claim >> 8) & 0xff);
      bytes[10] = 0;
      bytes[11] = 0;
      break;
    }
    case 6:  // random byte flips anywhere in a valid frame
      bytes = valid_frame(rng, image);
      flip_bytes(rng, bytes);
      break;
    default:  // splice: valid frame + garbage tail
      bytes = valid_frame(rng, image);
      append_garbage(rng, bytes, 128);
      break;
  }
  if (bytes.size() > options.max_case_bytes) {
    bytes.resize(options.max_case_bytes);
  }
  return bytes;
}

/// True when a reply shows its RESTORE frame got past the PFEG magic
/// check: the image was accepted, or PrefetchEngine::restore rejected it
/// for a later reason.
bool restore_past_magic(const wire::Frame& reply) {
  if (reply.header.type == wire::MsgType::kRestoreReply) {
    return true;
  }
  if (reply.header.type != wire::MsgType::kError) {
    return false;
  }
  const auto error = wire::parse_error(reply.payload);
  constexpr std::string_view kPrefix = "engine snapshot stream: ";
  return error && error->detail.starts_with(kPrefix) &&
         error->detail != std::string(kPrefix) + "bad magic";
}

/// Counts complete reply frames in a session's out buffer; replies the
/// server emits must themselves decode cleanly.
std::uint64_t count_replies(std::span<const std::uint8_t> out, bool* clean,
                            FuzzReport& report) {
  std::uint64_t frames = 0;
  std::size_t pos = 0;
  while (pos < out.size()) {
    const wire::DecodeResult result = wire::decode(out.subspan(pos));
    if (result.status != wire::DecodeStatus::kFrame) {
      *clean = false;
      return frames;
    }
    ++frames;
    if (result.frame.header.type == wire::MsgType::kRestoreReply) {
      ++report.restores_accepted;
    }
    if (restore_past_magic(result.frame)) {
      ++report.restores_past_magic;
    }
    pos += result.consumed;
  }
  *clean = true;
  return frames;
}

}  // namespace

FuzzReport run_protocol_fuzz(const FuzzOptions& options) {
  FuzzReport report;
  util::Xoshiro256 rng(options.seed);
  SessionConfig session_config;
  // Bound what a successful (mutated) TENANT_OPEN can cost; a real
  // deployment bounds this too (docs/server.md, "Resource bounds").
  session_config.max_batch = 1u << 12;
  std::vector<std::vector<std::uint8_t>> images;
  for (std::size_t i = 0; i < kLivePolicies.size(); ++i) {
    images.push_back(trained_image(live_engine_config(i)));
  }

  for (std::uint64_t c = 0; c < options.cases; ++c) {
    engine::TenantRegistry registry;
    engine::TenantConfig live;
    live.name = "fuzz-live";
    live.engine = live_engine_config(c);
    (void)registry.open(kLiveTenant, std::move(live), nullptr);

    Session session(registry, session_config);
    const std::vector<std::uint8_t> bytes =
        generate_case(rng, options, images[c % images.size()]);
    report.bytes += bytes.size();

    // Feed in random chunks to exercise reassembly across ingest calls.
    std::size_t pos = 0;
    bool alive = true;
    while (pos < bytes.size() && alive) {
      const std::size_t chunk = static_cast<std::size_t>(
          rng.range(1, 64));
      const std::size_t n = std::min(chunk, bytes.size() - pos);
      alive = session.ingest(
          std::span<const std::uint8_t>(bytes).subspan(pos, n));
      pos += n;
    }

    // Contract: fatal() <=> ingest said stop; replies decode cleanly;
    // one reply per handled frame plus one kError for a fatal ending.
    if (session.fatal() == alive) {
      ++report.contract_violations;
    }
    bool clean = false;
    const std::uint64_t replies =
        count_replies(session.out(), &clean, report);
    const std::uint64_t expected =
        session.frames_handled() + (session.fatal() ? 1 : 0);
    if (!clean || replies != expected) {
      ++report.contract_violations;
    }
    if (session.fatal()) {
      ++report.fatal_sessions;
    }
    report.frames_handled += session.frames_handled();
    report.errors_sent += session.errors_sent();
    ++report.cases;
  }
  return report;
}

}  // namespace pfp::server
