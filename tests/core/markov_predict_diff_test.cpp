// Differential test: DeltaMarkov::predict_into against the reference
// walk-sort-dedup of markov_reference.hpp, field by field, on the paper
// workloads, on seeded random delta streams and on adversarial fixtures.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <iterator>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/costben/equations.hpp"
#include "core/markov/markov_model.hpp"
#include "core/policy/cost_benefit.hpp"
#include "markov_reference.hpp"
#include "trace/workloads.hpp"
#include "util/prng.hpp"

namespace pfp::core::markov {
namespace {

using costben::PredictedBlock;
using testing::matches_reference;
using testing::ParsePosition;

/// Feeds `blocks` one at a time, comparing against the reference after
/// every access; stops at the first mismatch.
::testing::AssertionResult replay_matches(
    DeltaMarkov& model, const std::vector<trace::BlockId>& blocks,
    const costben::PredictLimits& limits, std::size_t& ambiguous_ties) {
  ParsePosition pos;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    pos.observe(model, blocks[i]);
    ::testing::AssertionResult r =
        matches_reference(model, pos, limits, ambiguous_ties);
    if (!r) {
      return r << " (after access " << i << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

void report_ties(const char* where, std::size_t ties) {
  ::testing::Test::RecordProperty(std::string(where) + "_ambiguous_ties",
                                  static_cast<int>(ties));
  std::cout << "[ reference ] " << where << ": " << ties
            << " equal (p, block, depth) ties with differing p_x\n";
}

TEST(MarkovPredictDiff, MatchesReferenceAtEveryAccessOfEachWorkload) {
  costben::PredictLimits narrow;
  narrow.max_depth = 3;
  narrow.min_probability = 0.05;
  narrow.max_candidates = 6;
  for (const trace::Workload w : trace::all_workloads()) {
    const trace::Trace t = trace::make_workload(w, 20'000, 1);
    std::vector<trace::BlockId> blocks;
    blocks.reserve(t.size());
    for (const trace::TraceRecord& r : t) {
      blocks.push_back(r.block);
    }
    for (const costben::PredictLimits& limits : {costben::PredictLimits{}, narrow}) {
      DeltaMarkov model;
      std::size_t ties = 0;
      EXPECT_TRUE(replay_matches(model, blocks, limits, ties))
          << trace::workload_name(w) << ", max_depth " << limits.max_depth;
      report_ties((trace::workload_name(w) + "_depth" +
                   std::to_string(limits.max_depth)).c_str(), ties);
    }
  }
}

TEST(MarkovPredictDiff, MatchesReferenceOnSeededRandomDeltaStreams) {
  constexpr std::uint32_t kWidths[] = {1, 2, 3, 8, 16};
  constexpr std::uint32_t kContexts[] = {4, 64, 4096};
  constexpr double kMinProbabilities[] = {0.0, 0.002, 0.05};
  constexpr std::size_t kCaps[] = {0, 1, 5, 48, 500};
  std::size_t ties = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    util::Xoshiro256 rng(seed);
    MarkovConfig config;
    config.row_width = kWidths[rng.below(std::size(kWidths))];
    config.max_contexts = kContexts[rng.below(std::size(kContexts))];
    config.max_count = 2 + static_cast<std::uint32_t>(rng.below(60));
    costben::PredictLimits limits;
    limits.max_depth = 1 + static_cast<std::uint32_t>(rng.below(10));
    limits.min_probability =
        kMinProbabilities[rng.below(std::size(kMinProbabilities))];
    limits.max_candidates = kCaps[rng.below(std::size(kCaps))];

    // A small delta alphabet with a random first-order structure, so
    // rows fill, chains converge and probabilities tie.  Blocks start
    // near zero; negative deltas clamp there, so chains walk below 0.
    const std::size_t alphabet = 2 + rng.below(7);
    std::vector<std::int64_t> deltas(alphabet);
    for (std::int64_t& d : deltas) {
      d = static_cast<std::int64_t>(rng.below(17)) - 8;
    }
    std::vector<std::size_t> favourite(alphabet);
    for (std::size_t& f : favourite) {
      f = rng.below(alphabet);
    }
    std::vector<trace::BlockId> blocks;
    std::int64_t block = static_cast<std::int64_t>(rng.below(32));
    std::size_t state = 0;
    for (int i = 0; i < 3'000; ++i) {
      state = rng.below(4) == 0 ? rng.below(alphabet) : favourite[state];
      block = std::max<std::int64_t>(0, block + deltas[state]);
      blocks.push_back(static_cast<trace::BlockId>(block));
    }
    DeltaMarkov model(config);
    EXPECT_TRUE(replay_matches(model, blocks, limits, ties))
        << "seed " << seed << ", row_width " << config.row_width
        << ", max_contexts " << config.max_contexts << ", max_depth "
        << limits.max_depth << ", min_probability "
        << limits.min_probability << ", max_candidates "
        << limits.max_candidates;
  }
  report_ties("random", ties);
}

/// A stream whose deltas are `deltas`, starting at `start`.
std::vector<trace::BlockId> from_deltas(
    trace::BlockId start, const std::vector<std::int64_t>& deltas) {
  std::vector<trace::BlockId> blocks{start};
  for (const std::int64_t d : deltas) {
    blocks.push_back(static_cast<trace::BlockId>(
        static_cast<std::int64_t>(blocks.back()) + d));
  }
  return blocks;
}

/// Every limits variant the fixtures are checked under: the defaults,
/// the caps 0 and 1, depth 1, and no probability floor.
std::vector<costben::PredictLimits> fixture_limits() {
  std::vector<costben::PredictLimits> all(5);
  all[1].max_candidates = 0;
  all[2].max_candidates = 1;
  all[3].max_depth = 1;
  all[4].min_probability = 0.0;
  all[4].max_depth = 12;
  return all;
}

void expect_fixture_matches(const std::vector<trace::BlockId>& blocks,
                            MarkovConfig config = {}) {
  std::size_t ties = 0;
  for (const costben::PredictLimits& limits : fixture_limits()) {
    DeltaMarkov model(config);
    EXPECT_TRUE(replay_matches(model, blocks, limits, ties))
        << "max_candidates " << limits.max_candidates << ", max_depth "
        << limits.max_depth;
  }
}

TEST(MarkovPredictDiff, SingleSuccessorRowsTieOnProbability) {
  // Context +3 splits evenly between +5 and +9; every other context has
  // a single successor, so both chains hold p flat between visits to +3
  // and tie with each other over long runs of equal p.
  std::vector<std::int64_t> deltas;
  for (int i = 0; i < 30; ++i) {
    deltas.insert(deltas.end(), {3, 5, 7, 3, 9, 11});
  }
  deltas.push_back(3);
  expect_fixture_matches(from_deltas(1'000, deltas));
}

TEST(MarkovPredictDiff, ConvergentChainsKeepTheBestRoute) {
  // Context +4 -> {+1: 2/3, +2: 1/3}; +1's best successor is +2 (3/4)
  // and +2's is +1 (1/2), so both chains reach prev + 3 at depth 2, with
  // p 1/2 and 1/6.
  std::vector<std::int64_t> deltas;
  for (int i = 0; i < 15; ++i) {
    deltas.insert(deltas.end(), {4, 1, 2, 4, 2, 1, 2, 1, 4, 1, 2});
  }
  deltas.push_back(4);
  const std::vector<trace::BlockId> blocks = from_deltas(500, deltas);
  expect_fixture_matches(blocks);

  DeltaMarkov model;
  for (const trace::BlockId b : blocks) {
    model.observe(b);
  }
  std::vector<PredictedBlock> out;
  model.predict_into({}, out);
  std::size_t converged = 0;
  for (const PredictedBlock& c : out) {
    if (c.block == blocks.back() + 3) {
      ++converged;
      EXPECT_EQ(c.depth, 2u);
      EXPECT_DOUBLE_EQ(c.probability, 0.5);
    }
  }
  EXPECT_EQ(converged, 1u);
}

TEST(MarkovPredictDiff, ChainsThatWalkBelowBlockZero) {
  // A strong -3 stride predicted from blocks near the origin: depth-1
  // candidates and chain extensions both fall off the front.
  std::vector<std::int64_t> deltas;
  for (int i = 0; i < 12; ++i) {
    deltas.insert(deltas.end(), {-3, -3, -3, 9, -3, -3, 1, -3});
  }
  const std::vector<trace::BlockId> blocks = from_deltas(100, deltas);
  for (const trace::BlockId b : blocks) {
    ASSERT_LT(b, 1'000u);  // the fixture itself never wraps
  }
  expect_fixture_matches(blocks);
}

TEST(MarkovPredictDiff, MoreCandidatesThanTheCap) {
  // Sixteen successors per context, each certain beyond depth 1: up to
  // 16 x 8 distinct blocks compete for the 48 slots.
  MarkovConfig config;
  config.row_width = 16;
  std::vector<std::int64_t> deltas;
  for (int k = 0; k < 16; ++k) {
    deltas.insert(deltas.end(), {100, 17 + 40 * k});
  }
  deltas.push_back(100);
  std::size_t ties = 0;
  DeltaMarkov model(config);
  ASSERT_TRUE(replay_matches(model, from_deltas(5'000, deltas), {}, ties));
  std::vector<PredictedBlock> out;
  EXPECT_EQ(model.predict_into({}, out), 48u);  // the cap bites
  expect_fixture_matches(from_deltas(5'000, deltas), config);
}

TEST(MarkovPredictDiff, CapBoundaryTieIsBrokenByBlockAlone) {
  // Context +100 splits evenly over sixteen successors, each certain to
  // return to +100: every chain holds p = 1/16 for two steps and 1/256
  // for two more, so 32 blocks tie at 1/256 for the last 16 of the 48
  // slots.  The successors are learned largest delta first, so the walk
  // reaches the highest blocks first and only the block rank can pick
  // the kept ones.
  MarkovConfig config;
  config.row_width = 16;
  std::vector<std::int64_t> deltas;
  for (int k = 15; k >= 0; --k) {
    deltas.insert(deltas.end(), {100, 17 + 40 * k});
  }
  deltas.push_back(100);
  const std::vector<trace::BlockId> blocks = from_deltas(5'000, deltas);

  DeltaMarkov model(config);
  ParsePosition pos;
  for (const trace::BlockId b : blocks) {
    pos.observe(model, b);
  }
  costben::PredictLimits uncapped;
  uncapped.max_candidates = 500;
  const testing::ReferenceResult all =
      testing::reference_predict(model, pos, uncapped);
  const costben::PredictLimits limits;  // max_candidates 48
  ASSERT_GT(all.entries.size(), limits.max_candidates);
  const PredictedBlock& last_kept = all.entries[47].candidate;
  const PredictedBlock& first_dropped = all.entries[48].candidate;
  ASSERT_EQ(last_kept.probability, first_dropped.probability);
  ASSERT_LT(last_kept.block, first_dropped.block);

  std::size_t ties = 0;
  EXPECT_TRUE(matches_reference(model, pos, limits, ties));
  std::vector<PredictedBlock> out;
  ASSERT_EQ(model.predict_into(limits, out), 48u);
  for (const PredictedBlock& c : out) {
    EXPECT_FALSE(DeltaMarkov::ranks_before(first_dropped, c))
        << "block " << c.block << " kept over " << first_dropped.block;
  }
  expect_fixture_matches(blocks, config);
}

TEST(MarkovPredictDiff, RowWidthOne) {
  MarkovConfig config;
  config.row_width = 1;
  std::vector<std::int64_t> deltas;
  for (int i = 0; i < 25; ++i) {
    deltas.insert(deltas.end(), {2, 6, 2, 2, 7, 6, 2});
  }
  expect_fixture_matches(from_deltas(300, deltas), config);
}

TEST(MarkovPredictDiff, AppendsAfterANonEmptyOut) {
  std::vector<std::int64_t> deltas;
  for (int i = 0; i < 20; ++i) {
    deltas.insert(deltas.end(), {1, 1, 5, 1, 3});
  }
  const std::vector<trace::BlockId> blocks = from_deltas(200, deltas);
  const std::vector<PredictedBlock> prefix = {{7, 0.5, 1.0, 1},
                                              {9, 0.25, 0.5, 2}};
  std::size_t ties = 0;
  for (const costben::PredictLimits& limits : fixture_limits()) {
    DeltaMarkov model;
    ParsePosition pos;
    for (const trace::BlockId b : blocks) {
      pos.observe(model, b);
      ASSERT_TRUE(matches_reference(model, pos, limits, ties, prefix));
    }
  }
}

TEST(MarkovPredictDiff, CountsTiesThatOnlyDifferInParentProbability) {
  // Context +7 -> {+1: 2, +2: 1, +9: 1}; +1 -> {+4, +5} (best +4, step
  // 1/2); +2 -> {+3} (step 1).  Both chains reach prev + 5 at depth 2
  // with p = 1/2 * 1/2 = 1/4 * 1 exactly, but p_x 1/2 versus 1/4: the
  // one case where the reference's unstable sort has no single answer.
  const std::vector<trace::BlockId> blocks =
      from_deltas(1'000, {7, 1, 4, 7, 2, 3, 7, 1, 5, 7, 9, 7});
  DeltaMarkov model;
  ParsePosition pos;
  for (const trace::BlockId b : blocks) {
    pos.observe(model, b);
  }
  std::size_t ties = 0;
  EXPECT_TRUE(matches_reference(model, pos, {}, ties));
  EXPECT_GE(ties, 1u);
  // The walk reaches the +1 chain first, so its p_x survives.
  std::vector<PredictedBlock> out;
  model.predict_into({}, out);
  const trace::BlockId tied = pos.block + 5;
  bool found = false;
  for (const PredictedBlock& c : out) {
    if (c.block == tied) {
      found = true;
      EXPECT_EQ(c.depth, 2u);
      EXPECT_EQ(c.probability, 0.25);
      EXPECT_EQ(c.parent_probability, 0.5);
    }
  }
  EXPECT_TRUE(found);
}

/// The controller's walk order for one period: the candidates behind
/// price_and_order's `order`, best-first.
std::vector<PredictedBlock> walk_order(
    const std::vector<std::pair<double, std::size_t>>& order,
    const std::vector<PredictedBlock>& candidates) {
  std::vector<PredictedBlock> walked;
  walked.reserve(order.size());
  for (const auto& [benefit, index] : order) {
    walked.push_back(candidates[index]);
  }
  return walked;
}

TEST(MarkovPredictDiff, RankingAfterPricingWalksTheRankedListsOrder) {
  // The controller step the markov policy runs: price the unranked set,
  // rank the positive-benefit entries, sort by benefit.  Its walk must
  // equal what pricing the reference's ranked list with no rank gives,
  // at every access.  The benefit sort is not stable, so this holds only
  // because the entries reach it in the same sequence.
  const costben::PredictLimits limits;
  const policy::CostBenefitKnobs knobs;
  const costben::TimingParams timing;
  constexpr double kPrefetchRates[] = {0.25, 1.0, 4.0};
  std::vector<double> dtpf;
  std::vector<std::pair<double, std::size_t>> order;
  for (const trace::Workload w : {trace::Workload::kCad,
                                  trace::Workload::kSnake,
                                  trace::Workload::kSitar,
                                  trace::Workload::kCello}) {
    const trace::Trace t = trace::make_workload(w, 20'000, 1);
    DeltaMarkov model;
    ParsePosition pos;
    std::size_t ties = 0;
    std::size_t walked_total = 0;
    for (std::size_t i = 0; i < t.size(); ++i) {
      pos.observe(model, t[i].block);
      std::vector<PredictedBlock> set;
      model.predict_into(limits, set);
      ASSERT_TRUE(matches_reference(model, pos, limits, ties))
          << trace::workload_name(w) << ", access " << i;

      // The reference's ranked list.  Where it allows several parent
      // probabilities, take the one the production pass kept (the line
      // above checked it is allowed) so both lists price identically.
      std::vector<PredictedBlock> ranked_set = set;
      std::sort(ranked_set.begin(), ranked_set.end(),
                DeltaMarkov::ranks_before);
      const testing::ReferenceResult ref =
          testing::reference_predict(model, pos, limits);
      std::vector<PredictedBlock> ranked;
      for (std::size_t j = 0; j < ref.entries.size(); ++j) {
        ranked.push_back(ref.entries[j].candidate);
        if (ref.entries[j].allowed_parents.size() > 1) {
          ranked.back().parent_probability =
              ranked_set[j].parent_probability;
        }
      }

      const costben::BenefitTable benefit_of(
          timing, kPrefetchRates[i % std::size(kPrefetchRates)],
          limits.max_depth, dtpf);
      policy::price_and_order(std::span<const PredictedBlock>(set), knobs,
                              benefit_of, order, /*rank=*/true);
      const std::vector<PredictedBlock> got = walk_order(order, set);
      policy::price_and_order(std::span<const PredictedBlock>(ranked), knobs,
                              benefit_of, order);
      const std::vector<PredictedBlock> want = walk_order(order, ranked);

      ASSERT_EQ(got.size(), want.size())
          << trace::workload_name(w) << ", access " << i;
      for (std::size_t j = 0; j < got.size(); ++j) {
        ASSERT_TRUE(got[j].block == want[j].block &&
                    got[j].probability == want[j].probability &&
                    got[j].parent_probability == want[j].parent_probability &&
                    got[j].depth == want[j].depth)
            << trace::workload_name(w) << ", access " << i << ", walk step "
            << j << ": got block " << got[j].block << ", want block "
            << want[j].block;
      }
      walked_total += got.size();
    }
    EXPECT_GT(walked_total, t.size() / 2)
        << trace::workload_name(w) << ": the controller priced too few";
  }
}

}  // namespace
}  // namespace pfp::core::markov
