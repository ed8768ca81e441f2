// The markov / assoc policies under the generic predictor-state
// interface: candidate flow into the shared cost-benefit loop, the
// opaque serialize/restore virtuals, and typed candidate introspection.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/policy/assoc_policy.hpp"
#include "core/policy/factory.hpp"
#include "core/policy/markov_policy.hpp"
#include "policy_harness.hpp"
#include "sim/simulator.hpp"
#include "trace/trace.hpp"

namespace pfp::core::policy {
namespace {

using sim::simulate;

trace::Trace strided_trace(std::size_t n, trace::BlockId stride) {
  trace::Trace t("stride");
  for (std::size_t i = 0; i < n; ++i) {
    t.append(static_cast<trace::BlockId>(i) * stride);
  }
  return t;
}

trace::Trace interleaved_pair_trace(int reps) {
  // 100 -> 200 always separated by one fresh noise block: invisible to
  // first-order chains, visible to the windowed association miner.
  trace::Trace t("interleaved");
  trace::BlockId noise = 1'000'000;
  for (int rep = 0; rep < reps; ++rep) {
    t.append(100);
    t.append(noise++);
    t.append(200);
    t.append(noise++);
    t.append(noise++);
  }
  return t;
}

engine::EngineConfig config_for(PolicyKind kind, std::size_t blocks = 64) {
  engine::EngineConfig c;
  c.cache_blocks = blocks;
  c.policy.kind = kind;
  return c;
}

/// Hand-feeds a trace through a bare policy (no engine): enough to train
/// the predictor model for the state round-trip tests.
void feed(Prefetcher& policy, testing::Harness& h, const trace::Trace& t) {
  for (const trace::TraceRecord& r : t) {
    const AccessOutcome outcome = h.cache.contains(r.block)
                                      ? AccessOutcome::kDemandHit
                                      : AccessOutcome::kMiss;
    policy.on_access(r.block, outcome, h.ctx);
    h.ctx.now_ms += 15.0;
    ++h.ctx.period;
  }
}

TEST(MarkovPolicy, PrefetchesALearnedStride) {
  // A strided scan revisits no block, so the LZ tree can only predict
  // already-seen (never re-referenced) blocks; the delta chain collapses
  // the scan onto a single certain transition and prefetches ahead.
  const trace::Trace t = strided_trace(3'000, 4);
  const auto tree = simulate(config_for(PolicyKind::kTree), t);
  const auto markov = simulate(config_for(PolicyKind::kMarkov), t);
  EXPECT_EQ(tree.metrics.prefetch_hits, 0u);
  EXPECT_GT(markov.metrics.prefetch_hits, 2'000u);
  EXPECT_LT(markov.metrics.miss_rate(), 0.5);
}

TEST(MarkovPolicy, ReportsPredictorSizeCounters) {
  const auto r =
      simulate(config_for(PolicyKind::kMarkov), strided_trace(500, 4));
  // The tree_* counters double as generic predictor-size gauges.
  EXPECT_GT(r.metrics.policy.tree_nodes, 0u);
  EXPECT_GT(r.metrics.policy.tree_bytes, 0u);
}

TEST(MarkovPolicy, PredictorStateRoundTripsThroughTheVirtuals) {
  testing::Harness h(64);
  MarkovCostBenefit trained;
  feed(trained, h, strided_trace(200, 4));
  EXPECT_EQ(trained.predictor_state_tag(), kPredictorMarkov);
  ASSERT_GT(trained.model().row_count(), 0u);

  std::vector<std::uint8_t> blob;
  trained.save_predictor_state(blob);
  util::ByteReader in(blob);
  MarkovCostBenefit restored;
  EXPECT_TRUE(restored.load_predictor_state(in));
  EXPECT_TRUE(in.exhausted());
  EXPECT_EQ(restored.model().row_count(), trained.model().row_count());
  EXPECT_EQ(restored.model().transition_count(),
            trained.model().transition_count());
}

TEST(MarkovPolicy, LoadRejectsForeignBlobs) {
  MarkovCostBenefit policy;
  const std::string junk = "PFTRnot-a-markov-stream";
  util::ByteReader in(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(junk.data()), junk.size()));
  EXPECT_THROW(policy.load_predictor_state(in), std::runtime_error);
}

TEST(MarkovPolicy, PredictionsIntoReportsTypedCandidates) {
  testing::Harness h(64);
  MarkovCostBenefit policy;
  feed(policy, h, strided_trace(41, 4));  // last access: block 160
  std::vector<costben::PredictedBlock> out;
  const std::size_t n =
      policy.model().predict_into(costben::PredictLimits{}, out);
  ASSERT_GT(n, 0u);
  ASSERT_EQ(out.size(), n);
  std::sort(out.begin(), out.end(), markov::DeltaMarkov::ranks_before);
  EXPECT_EQ(out[0].block, 164u);
  EXPECT_GT(out[0].probability, 0.0);
  EXPECT_EQ(out[0].depth, 1u);
}

trace::Trace rotating_pairs_trace(int cycles, int pairs) {
  // Pairs (A_i -> A_i + 500) visited round-robin with fresh noise blocks
  // between and after them.  With more pairs than cache blocks a pair is
  // long evicted when it comes around again, so only prediction — not
  // residency — can produce hits; the ever-fresh noise block inside each
  // pair hides the association from first-order delta chains.
  trace::Trace t("pairs");
  trace::BlockId noise = 1'000'000;
  for (int cycle = 0; cycle < cycles; ++cycle) {
    for (int i = 0; i < pairs; ++i) {
      const trace::BlockId a =
          10'000 + static_cast<trace::BlockId>(i) * 1'000;
      t.append(a);
      t.append(noise++);
      t.append(a + 500);
      t.append(noise++);
      t.append(noise++);
    }
  }
  return t;
}

TEST(AssocPolicy, PrefetchesAMinedAssociation) {
  const trace::Trace t = rotating_pairs_trace(20, 96);
  const auto markov = simulate(config_for(PolicyKind::kMarkov), t);
  const auto assoc = simulate(config_for(PolicyKind::kAssoc), t);
  EXPECT_GT(assoc.metrics.prefetch_hits, 1'000u);
  EXPECT_GT(assoc.metrics.prefetch_hits, markov.metrics.prefetch_hits);
}

TEST(AssocPolicy, PredictorStateRoundTripsThroughTheVirtuals) {
  testing::Harness h(64);
  assoc::AssocConfig config;
  config.window = 16;
  config.lookahead = 4;
  AssocCostBenefit trained(config);
  feed(trained, h, interleaved_pair_trace(8));
  EXPECT_EQ(trained.predictor_state_tag(), kPredictorAssoc);
  ASSERT_GT(trained.miner().row_count(), 0u);

  std::vector<std::uint8_t> blob;
  trained.save_predictor_state(blob);
  util::ByteReader in(blob);
  AssocCostBenefit restored(config);
  EXPECT_TRUE(restored.load_predictor_state(in));
  EXPECT_TRUE(in.exhausted());
  EXPECT_EQ(restored.miner().row_count(), trained.miner().row_count());
  EXPECT_EQ(restored.miner().association_count(),
            trained.miner().association_count());
}

TEST(AssocPolicy, LoadRejectsForeignBlobs) {
  AssocCostBenefit policy;
  const std::string junk = "PFMKnot-an-association-stream";
  util::ByteReader in(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(junk.data()), junk.size()));
  EXPECT_THROW(policy.load_predictor_state(in), std::runtime_error);
}

TEST(AssocPolicy, PredictionsIntoReportsTypedCandidates) {
  testing::Harness h(64);
  assoc::AssocConfig config;
  config.window = 16;
  config.lookahead = 4;
  AssocCostBenefit policy(config);
  feed(policy, h, interleaved_pair_trace(8));
  std::vector<costben::PredictedBlock> out;
  const std::size_t n =
      policy.miner().predict_into(100, costben::PredictLimits{}, out);
  ASSERT_GT(n, 0u);
  ASSERT_EQ(out.size(), n);
  EXPECT_EQ(out[0].block, 200u);
  EXPECT_GT(out[0].probability, 0.0);
}

TEST(PredictorInterface, BaselinePoliciesCarryNoState) {
  const PolicySpec spec;  // kNoPrefetch
  const auto policy = make_prefetcher(spec);
  EXPECT_EQ(policy->predictor_state_tag(), kPredictorNone);
  std::vector<std::uint8_t> blob;
  policy->save_predictor_state(blob);
  EXPECT_TRUE(blob.empty());
  util::ByteReader in(blob);
  EXPECT_FALSE(policy->load_predictor_state(in));
}

TEST(PredictorInterface, TagNamesAreHumanReadable) {
  EXPECT_EQ(predictor_tag_name(kPredictorNone), "none");
  EXPECT_EQ(predictor_tag_name(kPredictorTree), "tree");
  EXPECT_EQ(predictor_tag_name(kPredictorMarkov), "markov");
  EXPECT_EQ(predictor_tag_name(kPredictorAssoc), "assoc");
  // Unknown tags print as hex so snapshot mismatch errors stay debuggable.
  EXPECT_EQ(predictor_tag_name(0xdeadbeefu), "0xdeadbeef");
}

TEST(PredictorInterface, FactoryKindsReportTheirFamilyTag) {
  const struct {
    PolicyKind kind;
    std::uint32_t tag;
  } expected[] = {
      {PolicyKind::kNoPrefetch, kPredictorNone},
      {PolicyKind::kNextLimit, kPredictorNone},
      {PolicyKind::kTree, kPredictorTree},
      {PolicyKind::kTreeNextLimit, kPredictorTree},
      {PolicyKind::kTreeLvc, kPredictorTree},
      {PolicyKind::kPerfectSelector, kPredictorTree},
      {PolicyKind::kTreeThreshold, kPredictorTree},
      {PolicyKind::kTreeChildren, kPredictorTree},
      {PolicyKind::kProbGraph, kPredictorNone},
      {PolicyKind::kTreeAdaptive, kPredictorTree},
      {PolicyKind::kMarkov, kPredictorMarkov},
      {PolicyKind::kAssoc, kPredictorAssoc},
  };
  EXPECT_EQ(std::size(expected), all_policy_kinds().size());
  for (const auto& row : expected) {
    PolicySpec spec;
    spec.kind = row.kind;
    const auto policy = make_prefetcher(spec);
    EXPECT_EQ(policy->predictor_state_tag(), row.tag)
        << kind_name(row.kind);
  }
}

}  // namespace
}  // namespace pfp::core::policy
