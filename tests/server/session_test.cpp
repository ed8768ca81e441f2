// Protocol state-machine tests against the transport-independent
// Session — the exact code path the socket server and the fuzzer drive.
#include "server/session.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "engine/tenant_registry.hpp"
#include "server/wire.hpp"

namespace pfp::server {
namespace {

struct Reply {
  wire::FrameHeader header;
  std::vector<std::uint8_t> payload;
};

/// Decodes and consumes every complete reply frame queued in `session`.
std::vector<Reply> drain_replies(Session& session) {
  std::vector<Reply> replies;
  const std::span<const std::uint8_t> out(session.out());
  std::size_t pos = 0;
  while (pos < out.size()) {
    const wire::DecodeResult result = wire::decode(out.subspan(pos));
    EXPECT_EQ(result.status, wire::DecodeStatus::kFrame)
        << "reply bytes must themselves decode cleanly";
    if (result.status != wire::DecodeStatus::kFrame) {
      break;
    }
    replies.push_back(Reply{result.frame.header,
                            {result.frame.payload.begin(),
                             result.frame.payload.end()}});
    pos += result.consumed;
  }
  session.consumed(pos);
  return replies;
}

std::vector<std::uint8_t> make_frame(
    wire::MsgType type, std::uint16_t tenant, std::uint32_t serial,
    std::span<const std::uint8_t> payload = {}) {
  wire::FrameHeader header;
  header.type = type;
  header.tenant = tenant;
  header.serial = serial;
  std::vector<std::uint8_t> bytes;
  wire::append_frame(bytes, header, payload);
  return bytes;
}

std::vector<std::uint8_t> open_payload(const std::string& name,
                                       const std::string& policy,
                                       std::uint64_t cache_blocks,
                                       std::uint32_t shards = 0) {
  wire::TenantOpenRequest request;
  request.name = name;
  request.policy = policy;
  request.cache_blocks = cache_blocks;
  request.shards = shards;
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

wire::ErrorReply expect_error(const Reply& reply) {
  EXPECT_EQ(reply.header.type, wire::MsgType::kError);
  const auto parsed = wire::parse_error(reply.payload);
  EXPECT_TRUE(parsed.has_value());
  return parsed.value_or(wire::ErrorReply{});
}

TEST(Session, PingEchoesSerialAndTenant) {
  engine::TenantRegistry registry;
  Session session(registry, SessionConfig{});
  EXPECT_TRUE(session.ingest(make_frame(wire::MsgType::kPing, 9, 4242)));

  const std::vector<Reply> replies = drain_replies(session);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].header.type, wire::MsgType::kPingReply);
  EXPECT_EQ(replies[0].header.tenant, 9);
  EXPECT_EQ(replies[0].header.serial, 4242u);
  EXPECT_TRUE(replies[0].payload.empty());
  EXPECT_FALSE(session.fatal());
}

TEST(Session, OpenAccessStatsCloseGoldenFlow) {
  engine::TenantRegistry registry;
  Session session(registry, SessionConfig{});

  // TENANT_OPEN.
  EXPECT_TRUE(session.ingest(make_frame(
      wire::MsgType::kTenantOpen, 7, 1,
      open_payload("alpha", "tree-next-limit", 64))));
  std::vector<Reply> replies = drain_replies(session);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].header.type, wire::MsgType::kTenantOpenReply);
  EXPECT_EQ(registry.size(), 1u);

  // ACCESS_MANY: every block is accounted for exactly once.
  const std::uint64_t blocks[] = {1, 2, 3, 1, 2, 3, 1, 2};
  EXPECT_TRUE(session.ingest(make_frame(wire::MsgType::kAccessMany, 7, 2,
                                        access_many_payload(blocks))));
  replies = drain_replies(session);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].header.type, wire::MsgType::kAccessManyReply);
  EXPECT_EQ(replies[0].header.flags, 0);  // plain tenant: sync, no flags
  const auto batch = wire::parse_batch_reply(replies[0].payload);
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->demand_hits + batch->prefetch_hits + batch->misses, 8u);

  // STATS agrees with the batch totals.
  EXPECT_TRUE(session.ingest(make_frame(wire::MsgType::kStats, 7, 3)));
  replies = drain_replies(session);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].header.type, wire::MsgType::kStatsReply);
  const auto metrics = wire::parse_metrics(replies[0].payload);
  ASSERT_TRUE(metrics.has_value());
  EXPECT_EQ(metrics->accesses, 8u);
  EXPECT_EQ(metrics->demand_hits, batch->demand_hits);
  EXPECT_EQ(metrics->prefetch_hits, batch->prefetch_hits);
  EXPECT_EQ(metrics->misses, batch->misses);

  // TENANT_CLOSE, after which the id is gone.
  EXPECT_TRUE(session.ingest(make_frame(wire::MsgType::kTenantClose, 7, 4)));
  replies = drain_replies(session);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].header.type, wire::MsgType::kTenantCloseReply);
  EXPECT_EQ(registry.size(), 0u);

  EXPECT_TRUE(session.ingest(make_frame(wire::MsgType::kStats, 7, 5)));
  replies = drain_replies(session);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(expect_error(replies[0]).code, wire::ErrorCode::kNoSuchTenant);
}

TEST(Session, ReassemblesFramesAcrossByteAtATimeIngests) {
  engine::TenantRegistry registry;
  Session session(registry, SessionConfig{});
  const std::vector<std::uint8_t> bytes =
      make_frame(wire::MsgType::kPing, 0, 77);
  for (const std::uint8_t byte : bytes) {
    EXPECT_TRUE(session.ingest(std::span<const std::uint8_t>(&byte, 1)));
  }
  const std::vector<Reply> replies = drain_replies(session);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].header.serial, 77u);
}

TEST(Session, DuplicateOpenIsRejectedAndOriginalSurvives) {
  engine::TenantRegistry registry;
  Session session(registry, SessionConfig{});
  EXPECT_TRUE(session.ingest(make_frame(wire::MsgType::kTenantOpen, 3, 1,
                                        open_payload("first", "tree", 64))));
  EXPECT_TRUE(session.ingest(make_frame(
      wire::MsgType::kTenantOpen, 3, 2,
      open_payload("usurper", "markov", 4096))));

  const std::vector<Reply> replies = drain_replies(session);
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0].header.type, wire::MsgType::kTenantOpenReply);
  EXPECT_EQ(expect_error(replies[1]).code, wire::ErrorCode::kTenantExists);

  const auto tenant = registry.find(3);
  ASSERT_NE(tenant, nullptr);
  EXPECT_EQ(tenant->name(), "first");
  EXPECT_EQ(tenant->config().engine.cache_blocks, 64u);
}

TEST(Session, BadPolicyNameIsBadConfig) {
  engine::TenantRegistry registry;
  Session session(registry, SessionConfig{});
  EXPECT_TRUE(session.ingest(
      make_frame(wire::MsgType::kTenantOpen, 1, 1,
                 open_payload("t", "definitely-not-a-policy", 64))));
  const std::vector<Reply> replies = drain_replies(session);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(expect_error(replies[0]).code, wire::ErrorCode::kBadConfig);
  EXPECT_EQ(registry.size(), 0u);
}

TEST(Session, OracleTenantOpenIsBadConfig) {
  engine::TenantRegistry registry;
  Session session(registry, SessionConfig{});
  EXPECT_TRUE(session.ingest(
      make_frame(wire::MsgType::kTenantOpen, 1, 1,
                 open_payload("t", "perfect-selector", 64))));
  const std::vector<Reply> replies = drain_replies(session);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(expect_error(replies[0]).code, wire::ErrorCode::kBadConfig);
  EXPECT_EQ(registry.size(), 0u);
  EXPECT_FALSE(session.fatal());
}

TEST(Session, OversizedTenantOpenIsBadConfigBeforeAnythingIsBuilt) {
  // A fuzzed TENANT_OPEN: ~3.6e9 blocks on each of 2 shards.  Building it
  // would try to allocate tens of GB; the session must refuse it first.
  engine::TenantRegistry registry;
  Session session(registry, SessionConfig{});
  EXPECT_TRUE(session.ingest(
      make_frame(wire::MsgType::kTenantOpen, 1, 1,
                 open_payload("t", "tree", 0xd60001acULL, /*shards=*/2))));
  // The cap is on the pool summed over shards: one such shard would fit.
  EXPECT_TRUE(session.ingest(make_frame(
      wire::MsgType::kTenantOpen, 2, 2,
      open_payload("u", "tree", kMaxTenantCacheBlocks / 2 + 1,
                   /*shards=*/2))));
  const std::vector<Reply> replies = drain_replies(session);
  ASSERT_EQ(replies.size(), 2u);
  for (const Reply& reply : replies) {
    const wire::ErrorReply error = expect_error(reply);
    EXPECT_EQ(error.code, wire::ErrorCode::kBadConfig);
    EXPECT_NE(error.detail.find("cache_blocks"), std::string::npos)
        << error.detail;
  }
  EXPECT_EQ(registry.size(), 0u);
  EXPECT_FALSE(session.fatal());
}

TEST(Session, AccessReplyMatchesAccessManyOfOne) {
  // ACCESS is an ACCESS_MANY of one: for the same stream, every reply
  // must carry the same flags, tenant, serial and payload bytes; only
  // the reply type differs.  Plain tenants report exact counts, sharded
  // ones answer kFlagAsync with zeros.
  const std::uint64_t stream[] = {5, 6, 7, 5, 6, 7, 8, 9, 5, 6, 7, 8, 9, 10};
  for (const std::uint32_t shards : {0u, 2u}) {
    SCOPED_TRACE(shards);
    engine::TenantRegistry one_registry;
    engine::TenantRegistry many_registry;
    Session one(one_registry, SessionConfig{});
    Session many(many_registry, SessionConfig{});
    for (Session* session : {&one, &many}) {
      EXPECT_TRUE(session->ingest(make_frame(
          wire::MsgType::kTenantOpen, 3, 0,
          open_payload("t", "tree-next-limit", 64, shards))));
    }
    (void)drain_replies(one);
    (void)drain_replies(many);

    std::uint32_t serial = 1;
    for (const std::uint64_t block : stream) {
      std::vector<std::uint8_t> access;
      wire::put_u64(access, block);
      EXPECT_TRUE(
          one.ingest(make_frame(wire::MsgType::kAccess, 3, serial, access)));
      EXPECT_TRUE(many.ingest(make_frame(wire::MsgType::kAccessMany, 3,
                                         serial,
                                         access_many_payload({&block, 1}))));
      std::vector<std::uint8_t> a(one.out().begin(), one.out().end());
      std::vector<std::uint8_t> b(many.out().begin(), many.out().end());
      ASSERT_EQ(a.size(), wire::kHeaderSize + 32);
      ASSERT_EQ(b.size(), a.size());
      EXPECT_EQ(a[4], static_cast<std::uint8_t>(wire::MsgType::kAccessReply));
      EXPECT_EQ(b[4],
                static_cast<std::uint8_t>(wire::MsgType::kAccessManyReply));
      a[4] = b[4];  // the reply type is the one byte allowed to differ
      EXPECT_EQ(a, b) << "serial " << serial;
      if (shards != 0) {
        EXPECT_NE(a[5] & wire::kFlagAsync, 0);
      }
      one.consumed(one.out().size());
      many.consumed(many.out().size());
      ++serial;
    }
  }
}

TEST(Session, UnknownTypeIsRecoverable) {
  engine::TenantRegistry registry;
  Session session(registry, SessionConfig{});
  EXPECT_TRUE(session.ingest(
      make_frame(static_cast<wire::MsgType>(0x40), 0, 1)));
  EXPECT_FALSE(session.fatal());
  // The session keeps serving afterwards.
  EXPECT_TRUE(session.ingest(make_frame(wire::MsgType::kPing, 0, 2)));

  const std::vector<Reply> replies = drain_replies(session);
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(expect_error(replies[0]).code, wire::ErrorCode::kUnknownType);
  EXPECT_EQ(replies[1].header.type, wire::MsgType::kPingReply);
}

TEST(Session, BadMagicLatchesFatalForever) {
  engine::TenantRegistry registry;
  Session session(registry, SessionConfig{});
  const std::uint8_t garbage[] = {'X', 'Y', 'Z', 'W'};
  EXPECT_FALSE(session.ingest(garbage));
  EXPECT_TRUE(session.fatal());

  const std::vector<Reply> replies = drain_replies(session);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(expect_error(replies[0]).code, wire::ErrorCode::kBadMagic);

  // A valid frame after the fatal latch is never processed.
  EXPECT_FALSE(session.ingest(make_frame(wire::MsgType::kPing, 0, 1)));
  EXPECT_TRUE(drain_replies(session).empty());
  EXPECT_EQ(session.frames_handled(), 0u);
}

TEST(Session, OverLimitBatchGetsDeterministicBackpressure) {
  engine::TenantRegistry registry;
  SessionConfig config;
  config.max_batch = 4;
  Session session(registry, config);
  EXPECT_TRUE(session.ingest(make_frame(wire::MsgType::kTenantOpen, 1, 1,
                                        open_payload("t", "tree", 64))));
  const std::uint64_t blocks[] = {1, 2, 3, 4, 5};
  EXPECT_TRUE(session.ingest(make_frame(wire::MsgType::kAccessMany, 1, 2,
                                        access_many_payload(blocks))));

  const std::vector<Reply> replies = drain_replies(session);
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(expect_error(replies[1]).code, wire::ErrorCode::kBackpressure);
  EXPECT_FALSE(session.fatal());  // recoverable: split and retry
}

TEST(Session, AccessManyCountMismatchIsBadPayload) {
  engine::TenantRegistry registry;
  Session session(registry, SessionConfig{});
  EXPECT_TRUE(session.ingest(make_frame(wire::MsgType::kTenantOpen, 1, 1,
                                        open_payload("t", "tree", 64))));
  std::vector<std::uint8_t> payload;
  wire::put_u32(payload, 3);  // claims 3 blocks, sends 2
  wire::put_u64(payload, 10);
  wire::put_u64(payload, 11);
  EXPECT_TRUE(session.ingest(
      make_frame(wire::MsgType::kAccessMany, 1, 2, payload)));

  const std::vector<Reply> replies = drain_replies(session);
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(expect_error(replies[1]).code, wire::ErrorCode::kBadPayload);
}

TEST(Session, AdvisoryBackpressureFlagFollowsThreshold) {
  engine::TenantRegistry registry;
  SessionConfig config;
  config.pressure_threshold = 0.0;  // queue_pressure() >= 0 always trips
  Session session(registry, config);
  EXPECT_TRUE(session.ingest(make_frame(wire::MsgType::kTenantOpen, 1, 1,
                                        open_payload("t", "tree", 64))));
  const std::uint64_t blocks[] = {1, 2};
  EXPECT_TRUE(session.ingest(make_frame(wire::MsgType::kAccessMany, 1, 2,
                                        access_many_payload(blocks))));

  const std::vector<Reply> replies = drain_replies(session);
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[1].header.type, wire::MsgType::kAccessManyReply);
  EXPECT_NE(replies[1].header.flags & wire::kFlagBackpressure, 0);
}

TEST(Session, SnapshotMovesLearnedStateBetweenTenants) {
  engine::TenantRegistry registry;
  Session session(registry, SessionConfig{});
  EXPECT_TRUE(session.ingest(make_frame(wire::MsgType::kTenantOpen, 1, 1,
                                        open_payload("warm", "tree", 64))));
  std::vector<std::uint64_t> stream;
  for (int round = 0; round < 16; ++round) {
    for (std::uint64_t block = 0; block < 8; ++block) {
      stream.push_back(block);
    }
  }
  EXPECT_TRUE(session.ingest(make_frame(wire::MsgType::kAccessMany, 1, 2,
                                        access_many_payload(stream))));
  EXPECT_TRUE(session.ingest(make_frame(wire::MsgType::kSnapshot, 1, 3)));

  std::vector<Reply> replies = drain_replies(session);
  ASSERT_EQ(replies.size(), 3u);
  ASSERT_EQ(replies[2].header.type, wire::MsgType::kSnapshotReply);
  const std::vector<std::uint8_t> blob = replies[2].payload;
  EXPECT_FALSE(blob.empty());

  // Restore into a fresh tenant, then snapshot again: the learned state
  // round-trips bit-exactly.
  EXPECT_TRUE(session.ingest(make_frame(wire::MsgType::kTenantOpen, 2, 4,
                                        open_payload("cold", "tree", 64))));
  EXPECT_TRUE(
      session.ingest(make_frame(wire::MsgType::kRestore, 2, 5, blob)));
  EXPECT_TRUE(session.ingest(make_frame(wire::MsgType::kSnapshot, 2, 6)));
  replies = drain_replies(session);
  ASSERT_EQ(replies.size(), 3u);
  EXPECT_EQ(replies[1].header.type, wire::MsgType::kRestoreReply);
  ASSERT_EQ(replies[2].header.type, wire::MsgType::kSnapshotReply);
  EXPECT_EQ(replies[2].payload, blob);

  // And the restored tenant serves warm where a never-trained control
  // cannot: the snapshot carries cache residency, so the same probe
  // hits on the restored tenant and misses everywhere on the control.
  EXPECT_TRUE(session.ingest(make_frame(wire::MsgType::kTenantOpen, 3, 7,
                                        open_payload("fresh", "tree", 64))));
  const std::uint64_t probe[] = {0, 1, 2, 3, 4, 5, 6, 7};
  EXPECT_TRUE(session.ingest(make_frame(wire::MsgType::kAccessMany, 2, 8,
                                        access_many_payload(probe))));
  EXPECT_TRUE(session.ingest(make_frame(wire::MsgType::kAccessMany, 3, 9,
                                        access_many_payload(probe))));
  replies = drain_replies(session);
  ASSERT_EQ(replies.size(), 3u);
  const auto restored = wire::parse_batch_reply(replies[1].payload);
  const auto control = wire::parse_batch_reply(replies[2].payload);
  ASSERT_TRUE(restored.has_value());
  ASSERT_TRUE(control.has_value());
  EXPECT_GT(restored->demand_hits + restored->prefetch_hits, 0u);
  EXPECT_EQ(control->demand_hits + control->prefetch_hits, 0u);
}

TEST(Session, CorruptRestoreLeavesTenantStateUntouched) {
  engine::TenantRegistry registry;
  Session session(registry, SessionConfig{});
  EXPECT_TRUE(session.ingest(make_frame(wire::MsgType::kTenantOpen, 1, 1,
                                        open_payload("t", "tree", 64))));
  const std::uint64_t blocks[] = {4, 5, 6, 4, 5, 6};
  EXPECT_TRUE(session.ingest(make_frame(wire::MsgType::kAccessMany, 1, 2,
                                        access_many_payload(blocks))));
  EXPECT_TRUE(session.ingest(make_frame(wire::MsgType::kStats, 1, 3)));
  std::vector<Reply> replies = drain_replies(session);
  ASSERT_EQ(replies.size(), 3u);
  const auto before = wire::parse_metrics(replies[2].payload);
  ASSERT_TRUE(before.has_value());

  const std::string garbage = "this is not a PFEG snapshot";
  EXPECT_TRUE(session.ingest(make_frame(
      wire::MsgType::kRestore, 1, 4,
      std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(garbage.data()),
          garbage.size()))));
  EXPECT_TRUE(session.ingest(make_frame(wire::MsgType::kStats, 1, 5)));

  replies = drain_replies(session);
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(expect_error(replies[0]).code, wire::ErrorCode::kBadSnapshot);
  const auto after = wire::parse_metrics(replies[1].payload);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(*after, *before);  // bit-exact: the old engine kept serving
}

TEST(Session, ShardedTenantRepliesAsyncAndRefusesSnapshot) {
  engine::TenantRegistry registry;
  Session session(registry, SessionConfig{});
  EXPECT_TRUE(session.ingest(
      make_frame(wire::MsgType::kTenantOpen, 1, 1,
                 open_payload("wide", "tree", 256, /*shards=*/2))));
  const std::uint64_t blocks[] = {1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_TRUE(session.ingest(make_frame(wire::MsgType::kAccessMany, 1, 2,
                                        access_many_payload(blocks))));
  EXPECT_TRUE(session.ingest(make_frame(wire::MsgType::kSnapshot, 1, 3)));
  EXPECT_TRUE(session.ingest(make_frame(wire::MsgType::kStats, 1, 4)));
  EXPECT_TRUE(session.ingest(make_frame(wire::MsgType::kTenantClose, 1, 5)));

  const std::vector<Reply> replies = drain_replies(session);
  ASSERT_EQ(replies.size(), 5u);
  // Batch accepted but counts deferred to the shard workers.
  EXPECT_EQ(replies[1].header.type, wire::MsgType::kAccessManyReply);
  EXPECT_NE(replies[1].header.flags & wire::kFlagAsync, 0);
  const auto batch = wire::parse_batch_reply(replies[1].payload);
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->demand_hits + batch->prefetch_hits + batch->misses, 0u);
  // Per-shard predictor state does not concatenate.
  EXPECT_EQ(expect_error(replies[2]).code, wire::ErrorCode::kUnsupported);
  // STATS flushes the rings, so it IS the source of truth.
  const auto metrics = wire::parse_metrics(replies[3].payload);
  ASSERT_TRUE(metrics.has_value());
  EXPECT_EQ(metrics->accesses, 8u);
  EXPECT_EQ(replies[4].header.type, wire::MsgType::kTenantCloseReply);
}

}  // namespace
}  // namespace pfp::server
