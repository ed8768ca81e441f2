// CI smoke wrapper around the deterministic protocol fuzzer: the same
// corpus the nightly ASan leg runs 10x larger, pinned here so a decoder
// regression fails fast in the default test run too.
#include "server/fuzz.hpp"

#include <gtest/gtest.h>

namespace pfp::server {
namespace {

TEST(ProtocolFuzz, CorpusUpholdsTheErrorContract) {
  FuzzOptions options;
  options.cases = 400;
  const FuzzReport report = run_protocol_fuzz(options);
  EXPECT_EQ(report.contract_violations, 0u);
  EXPECT_EQ(report.cases, 400u);
  // The corpus must actually exercise both sides of the protocol: valid
  // frames that dispatch, and malformed ones that draw typed errors.
  EXPECT_GT(report.frames_handled, 0u);
  EXPECT_GT(report.errors_sent, 0u);
  EXPECT_GT(report.fatal_sessions, 0u);
  EXPECT_GT(report.bytes, 0u);
  // RESTORE frames carry real images: some restore cleanly, and more
  // reach PrefetchEngine::restore past the PFEG magic.
  EXPECT_GT(report.restores_accepted, 0u);
  EXPECT_GT(report.restores_past_magic, report.restores_accepted);
}

TEST(ProtocolFuzz, SameSeedSameVerdict) {
  FuzzOptions options;
  options.seed = 1234567;
  options.cases = 150;
  const FuzzReport a = run_protocol_fuzz(options);
  const FuzzReport b = run_protocol_fuzz(options);
  EXPECT_EQ(a.cases, b.cases);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.frames_handled, b.frames_handled);
  EXPECT_EQ(a.errors_sent, b.errors_sent);
  EXPECT_EQ(a.fatal_sessions, b.fatal_sessions);
  EXPECT_EQ(a.restores_past_magic, b.restores_past_magic);
  EXPECT_EQ(a.contract_violations, b.contract_violations);
}

TEST(ProtocolFuzz, DifferentSeedsDifferentCorpora) {
  FuzzOptions a_options;
  a_options.cases = 100;
  a_options.seed = 1;
  FuzzOptions b_options = a_options;
  b_options.seed = 2;
  const FuzzReport a = run_protocol_fuzz(a_options);
  const FuzzReport b = run_protocol_fuzz(b_options);
  EXPECT_NE(a.bytes, b.bytes);  // astronomically unlikely to collide
}

}  // namespace
}  // namespace pfp::server
