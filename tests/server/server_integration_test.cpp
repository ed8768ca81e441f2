// Socket end-to-end tests: a real PrefetchServer on a loopback port, a
// blocking test client speaking PFP1 (and HTTP for /metrics), and the
// bit-identical served-vs-replay check the server-integration CI leg
// scales up via load_gen.
#include "server/server.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "engine/tenant_registry.hpp"
#include "server/session.hpp"
#include "server/wire.hpp"
#include "util/net.hpp"
#include "util/thread_annotations.hpp"

namespace pfp::server {
namespace {

struct Reply {
  wire::FrameHeader header;
  std::vector<std::uint8_t> payload;
};

/// Blocking request/response client (one in-flight frame, like load_gen).
class Client {
 public:
  explicit Client(std::uint16_t port)
      : sock_(util::net::connect_tcp(port)) {}

  Reply call(wire::MsgType type, std::uint16_t tenant, std::uint32_t serial,
             std::span<const std::uint8_t> payload = {}) {
    wire::FrameHeader header;
    header.type = type;
    header.tenant = tenant;
    header.serial = serial;
    std::vector<std::uint8_t> frame;
    wire::append_frame(frame, header, payload);
    EXPECT_TRUE(util::net::write_all(sock_, frame));

    std::vector<std::uint8_t> reply(wire::kHeaderSize);
    EXPECT_TRUE(util::net::read_exact(sock_, reply));
    const std::uint32_t payload_len =
        static_cast<std::uint32_t>(reply[8]) |
        (static_cast<std::uint32_t>(reply[9]) << 8) |
        (static_cast<std::uint32_t>(reply[10]) << 16) |
        (static_cast<std::uint32_t>(reply[11]) << 24);
    reply.resize(wire::kHeaderSize + payload_len);
    EXPECT_TRUE(util::net::read_exact(
        sock_, std::span<std::uint8_t>(reply).subspan(wire::kHeaderSize)));

    const wire::DecodeResult result = wire::decode(reply);
    EXPECT_EQ(result.status, wire::DecodeStatus::kFrame);
    EXPECT_EQ(result.consumed, reply.size());
    EXPECT_EQ(result.frame.header.serial, serial);
    return Reply{result.frame.header,
                 {result.frame.payload.begin(), result.frame.payload.end()}};
  }

 private:
  util::net::Socket sock_;
};

std::vector<std::uint8_t> open_payload(const std::string& name,
                                       const std::string& policy,
                                       std::uint64_t cache_blocks) {
  wire::TenantOpenRequest request;
  request.name = name;
  request.policy = policy;
  request.cache_blocks = cache_blocks;
  std::vector<std::uint8_t> payload;
  wire::encode_tenant_open(payload, request);
  return payload;
}

std::vector<std::uint8_t> access_many_payload(
    std::span<const std::uint64_t> blocks) {
  std::vector<std::uint8_t> payload;
  wire::put_u32(payload, static_cast<std::uint32_t>(blocks.size()));
  for (const std::uint64_t block : blocks) {
    wire::put_u64(payload, block);
  }
  return payload;
}

/// A deterministic access stream (same formula the replay side uses).
std::vector<std::uint64_t> test_stream(std::size_t n) {
  std::vector<std::uint64_t> blocks;
  blocks.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    blocks.push_back((i * 7 + i / 13) % 256);
  }
  return blocks;
}

/// Sends one HTTP request and drains the one-shot response to EOF.
std::string http_get(std::uint16_t port, const std::string& target) {
  const util::net::Socket sock = util::net::connect_tcp(port);
  std::string request;
  request += "GET ";
  request += target;
  request += " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  EXPECT_TRUE(util::net::write_all(
      sock, std::span<const std::uint8_t>(
                reinterpret_cast<const std::uint8_t*>(request.data()),
                request.size())));
  std::string response;
  std::uint8_t buf[4096];
  for (;;) {
    const util::net::IoResult r = util::net::read_some(sock, buf);
    if (r.status == util::net::IoStatus::kOk) {
      response.append(reinterpret_cast<const char*>(buf), r.bytes);
      continue;
    }
    if (r.status == util::net::IoStatus::kClosed) {
      break;
    }
    ADD_FAILURE() << "unexpected read status";
    break;
  }
  return response;
}

TEST(ServerIntegration, ServedStreamMatchesInProcessReplayBitExactly) {
  ServerConfig config;
  config.loops = 2;
  PrefetchServer server(config);

  Client client(server.port());
  Reply reply = client.call(wire::MsgType::kTenantOpen, 1, 1,
                            open_payload("alpha", "tree-next-limit", 128));
  ASSERT_EQ(reply.header.type, wire::MsgType::kTenantOpenReply);

  const std::vector<std::uint64_t> stream = test_stream(1024);
  constexpr std::size_t kBatch = 128;
  std::uint32_t serial = 2;
  for (std::size_t at = 0; at < stream.size(); at += kBatch) {
    reply = client.call(
        wire::MsgType::kAccessMany, 1, serial++,
        access_many_payload(std::span<const std::uint64_t>(stream).subspan(
            at, std::min(kBatch, stream.size() - at))));
    ASSERT_EQ(reply.header.type, wire::MsgType::kAccessManyReply);
  }
  reply = client.call(wire::MsgType::kStats, 1, serial++);
  ASSERT_EQ(reply.header.type, wire::MsgType::kStatsReply);
  const auto served = wire::parse_metrics(reply.payload);
  ASSERT_TRUE(served.has_value());
  EXPECT_EQ(served->accesses, stream.size());

  // In-process replay: same config, same stream, same batching — the
  // STATS payload must match field for field, doubles included.
  engine::TenantConfig local;
  local.name = "replay";
  local.engine.cache_blocks = 128;
  std::string detail;
  ASSERT_EQ(engine::set_policy_by_name(local, "tree-next-limit", &detail),
            engine::TenantStatus::kOk);
  engine::Tenant replay(std::move(local));
  engine::Metrics local_metrics;
  {
    util::MutexLock lock(replay.mu());
    for (std::size_t at = 0; at < stream.size(); at += kBatch) {
      (void)replay.access_many(
          std::span<const std::uint64_t>(stream).subspan(
              at, std::min(kBatch, stream.size() - at)));
    }
    local_metrics = replay.metrics();
  }
  EXPECT_EQ(to_wire_metrics(local_metrics), *served);

  reply = client.call(wire::MsgType::kTenantClose, 1, serial++);
  EXPECT_EQ(reply.header.type, wire::MsgType::kTenantCloseReply);
  server.stop();
}

TEST(ServerIntegration, ConcurrentClientsOnDistinctTenantsStayIsolated) {
  ServerConfig config;
  config.loops = 2;
  PrefetchServer server(config);

  Client a(server.port());
  Client b(server.port());
  ASSERT_EQ(a.call(wire::MsgType::kTenantOpen, 1, 1,
                   open_payload("a", "tree", 64))
                .header.type,
            wire::MsgType::kTenantOpenReply);
  ASSERT_EQ(b.call(wire::MsgType::kTenantOpen, 2, 1,
                   open_payload("b", "markov", 64))
                .header.type,
            wire::MsgType::kTenantOpenReply);

  const std::uint64_t a_blocks[] = {1, 2, 3, 4};
  const std::uint64_t b_blocks[] = {9, 9, 9, 9, 9, 9};
  ASSERT_EQ(a.call(wire::MsgType::kAccessMany, 1, 2,
                   access_many_payload(a_blocks))
                .header.type,
            wire::MsgType::kAccessManyReply);
  ASSERT_EQ(b.call(wire::MsgType::kAccessMany, 2, 2,
                   access_many_payload(b_blocks))
                .header.type,
            wire::MsgType::kAccessManyReply);

  const auto a_stats =
      wire::parse_metrics(a.call(wire::MsgType::kStats, 1, 3).payload);
  const auto b_stats =
      wire::parse_metrics(b.call(wire::MsgType::kStats, 2, 3).payload);
  ASSERT_TRUE(a_stats.has_value());
  ASSERT_TRUE(b_stats.has_value());
  EXPECT_EQ(a_stats->accesses, 4u);
  EXPECT_EQ(b_stats->accesses, 6u);

  // Either client may drive the other's tenant id — same registry.
  const auto cross =
      wire::parse_metrics(b.call(wire::MsgType::kStats, 1, 4).payload);
  ASSERT_TRUE(cross.has_value());
  EXPECT_EQ(cross->accesses, 4u);
  server.stop();
}

TEST(ServerIntegration, MetricsEndpointServesTheMultiTenantExposition) {
  PrefetchServer server(ServerConfig{});
  Client client(server.port());
  ASSERT_EQ(client
                .call(wire::MsgType::kTenantOpen, 1, 1,
                      open_payload("scraped", "tree", 64))
                .header.type,
            wire::MsgType::kTenantOpenReply);
  const std::uint64_t blocks[] = {1, 2, 3};
  ASSERT_EQ(client
                .call(wire::MsgType::kAccessMany, 1, 2,
                      access_many_payload(blocks))
                .header.type,
            wire::MsgType::kAccessManyReply);

  const std::string response = http_get(server.port(), "/metrics");
  EXPECT_EQ(response.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << response;
  EXPECT_NE(response.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  const std::size_t body_at = response.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  const std::string body = response.substr(body_at + 4);

  // The HTTP body is exactly the in-process renderer's output.
  EXPECT_EQ(body, server.render_metrics());
  EXPECT_NE(body.find("pfp_accesses_total{tenant=\"scraped\","
                      "tenant_id=\"1\"} 3\n"),
            std::string::npos)
      << body;

  // Light exposition-format validation: every line is a comment or a
  // pfp_-prefixed sample.
  std::size_t line_start = 0;
  while (line_start < body.size()) {
    std::size_t line_end = body.find('\n', line_start);
    if (line_end == std::string::npos) {
      line_end = body.size();
    }
    const std::string line = body.substr(line_start, line_end - line_start);
    if (!line.empty()) {
      EXPECT_TRUE(line[0] == '#' || line.rfind("pfp_", 0) == 0) << line;
    }
    line_start = line_end + 1;
  }
  server.stop();
}

TEST(ServerIntegration, UnknownHttpTargetIs404) {
  PrefetchServer server(ServerConfig{});
  const std::string response = http_get(server.port(), "/nope");
  EXPECT_EQ(response.rfind("HTTP/1.1 404 Not Found\r\n", 0), 0u);
}

TEST(ServerIntegration, FramingGarbageDrawsFatalErrorThenClose) {
  PrefetchServer server(ServerConfig{});
  const util::net::Socket sock = util::net::connect_tcp(server.port());
  const std::uint8_t garbage[] = {'X', 'Y', 'Z', 'W', 1, 2, 3, 4};
  ASSERT_TRUE(util::net::write_all(sock, garbage));

  // One kError frame comes back, then the server closes the connection.
  std::vector<std::uint8_t> header(wire::kHeaderSize);
  ASSERT_TRUE(util::net::read_exact(sock, header));
  const std::uint32_t payload_len =
      static_cast<std::uint32_t>(header[8]) |
      (static_cast<std::uint32_t>(header[9]) << 8) |
      (static_cast<std::uint32_t>(header[10]) << 16) |
      (static_cast<std::uint32_t>(header[11]) << 24);
  std::vector<std::uint8_t> payload(payload_len);
  ASSERT_TRUE(util::net::read_exact(sock, payload));
  header.insert(header.end(), payload.begin(), payload.end());
  const wire::DecodeResult result = wire::decode(header);
  ASSERT_EQ(result.status, wire::DecodeStatus::kFrame);
  EXPECT_EQ(result.frame.header.type, wire::MsgType::kError);
  const auto error = wire::parse_error(result.frame.payload);
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->code, wire::ErrorCode::kBadMagic);

  std::uint8_t extra[16];
  EXPECT_FALSE(util::net::read_exact(sock, extra));  // EOF: closed
}

}  // namespace
}  // namespace pfp::server
