// Differential test: the served walks stop at the period's payable depth
// D (BenefitTable::payable_depth); the full walk goes to the default
// depth 8.  Past D, Eq. 1 prices every chained candidate <= 0, so cutting
// the walk there can only lose candidates that would never be issued.
//
// After every access of every workload, for the LZ tree and the delta
// chain, both walks are priced through the same table.  Every block the
// full walk prices positive must be priced positive by the bounded walk,
// with the same (p_b, p_x, d_b).  The bounded walk may price more blocks
// positive: the full walk loses payable depth-<=D candidates in two ways,
//   - cap: deeper, more probable candidates that can never pay fill the
//     48-candidate cap and push them out;
//   - dedup: a block keeps its most probable occurrence, and a deeper,
//     unpayable occurrence hides its payable one.
// Those recovered blocks are counted by cause, and cad must show some.
//
// The tree's best-first heap orders equal probabilities arbitrarily, and
// the two walks hold different heaps.  So where a block reaches its best
// probability along several paths, either walk may keep any of them; and
// where several blocks tie on probability across the cap, either walk
// may keep any of them (EnumeratorReferenceDiff accepts the same).  Such
// tie swaps are counted; the delta chain's dedup and cap are strict
// orders, so it must show none.  (A bounded-only block that a capped full
// walk left out counts as recovered from the cap; for the tree that
// includes tie members the full walk happened to cut.)
//
// It runs at the paper's T_cpu (D = 1) and at T_cpu = 2 ms (D = 4..7
// over the rates used here).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iostream>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/costben/equations.hpp"
#include "core/markov/markov_model.hpp"
#include "core/policy/cost_benefit.hpp"
#include "core/tree/enumerator.hpp"
#include "core/tree/prefetch_tree.hpp"
#include "trace/workloads.hpp"

namespace pfp::core {
namespace {

using costben::PredictedBlock;

enum class Family { kTree, kMarkov };

const char* family_name(Family f) {
  return f == Family::kTree ? "tree" : "markov";
}

struct SupersetStats {
  std::size_t calls = 0;
  std::size_t full_positive = 0;       ///< blocks the full walk prices > 0
  std::size_t recovered_cap = 0;       ///< bounded-only, cut by the cap
  std::size_t recovered_dedup = 0;     ///< bounded-only, hidden by dedup
  std::size_t tie_swaps = 0;           ///< equal-probability substitutions
  std::size_t bounded_capped = 0;      ///< bounded walks that hit the cap
  std::uint32_t min_depth = ~0u;       ///< payable depths seen
  std::uint32_t max_depth = 0;
};

/// The blocks `candidates` prices positive under `table`, by block.
std::unordered_map<std::uint64_t, PredictedBlock> positive_set(
    std::span<const PredictedBlock> candidates,
    const costben::BenefitTable& table,
    std::vector<std::pair<double, std::size_t>>& order) {
  policy::price_and_order(candidates, policy::CostBenefitKnobs{}, table,
                          order);
  std::unordered_map<std::uint64_t, PredictedBlock> set;
  for (const auto& [benefit, index] : order) {
    set.emplace(candidates[index].block, candidates[index]);
  }
  return set;
}

::testing::AssertionResult bounded_covers_full(
    std::span<const PredictedBlock> full,
    std::span<const PredictedBlock> bounded,
    const costben::BenefitTable& table, std::size_t max_candidates,
    std::vector<std::pair<double, std::size_t>>& order,
    SupersetStats& stats) {
  ++stats.calls;
  // Where the bounded walk hit the cap, the least probable candidate it
  // kept: a tie with it may have been cut instead.
  const bool capped = bounded.size() == max_candidates;
  stats.bounded_capped += capped ? 1u : 0u;
  double bounded_cut = -1.0;
  std::unordered_map<std::uint64_t, const PredictedBlock*> in_bounded;
  for (const PredictedBlock& c : bounded) {
    if (c.depth > table.payable_depth()) {
      return ::testing::AssertionFailure()
             << "bounded walk emitted block " << c.block << " at depth "
             << c.depth << " past the payable depth "
             << table.payable_depth();
    }
    if (capped && (bounded_cut < 0.0 || c.probability < bounded_cut)) {
      bounded_cut = c.probability;
    }
    in_bounded.emplace(c.block, &c);
  }
  const auto want = positive_set(full, table, order);
  const auto got = positive_set(bounded, table, order);
  stats.full_positive += want.size();
  for (const auto& [block, c] : want) {
    const auto it = got.find(block);
    if (it == got.end()) {
      const auto kept = in_bounded.find(block);
      const bool swapped =
          kept == in_bounded.end()
              ? c.probability == bounded_cut
              : kept->second->probability == c.probability;
      if (!swapped) {
        return ::testing::AssertionFailure()
               << "block " << block << " (depth " << c.depth
               << ") priced positive by the full walk only";
      }
      ++stats.tie_swaps;
      continue;
    }
    const PredictedBlock& b = it->second;
    if (b.probability != c.probability) {
      return ::testing::AssertionFailure()
             << "block " << block << ": full walk (p " << c.probability
             << ", d " << c.depth << "), bounded walk (p " << b.probability
             << ", d " << b.depth << ")";
    }
    if (b.parent_probability != c.parent_probability || b.depth != c.depth) {
      ++stats.tie_swaps;  // another path to the same best probability
    }
  }
  std::unordered_map<std::uint64_t, const PredictedBlock*> in_full;
  for (const PredictedBlock& c : full) {
    in_full.emplace(c.block, &c);
  }
  for (const auto& [block, c] : got) {
    if (want.count(block) != 0) {
      continue;
    }
    const auto it = in_full.find(block);
    if (it != in_full.end()) {
      if (it->second->probability == c.probability) {
        ++stats.tie_swaps;  // another path to the same best probability
        continue;
      }
      // The full walk kept a more probable, deeper occurrence.
      if (it->second->depth <= table.payable_depth()) {
        return ::testing::AssertionFailure()
               << "block " << block << " kept at payable depth "
               << it->second->depth << " by the full walk but not priced";
      }
      ++stats.recovered_dedup;
    } else {
      if (full.size() < max_candidates) {
        return ::testing::AssertionFailure()
               << "block " << block << " missing from an uncapped full walk";
      }
      ++stats.recovered_cap;
    }
  }
  return ::testing::AssertionSuccess();
}

/// Replays `w` through one family, comparing the bounded and full walks
/// after every access; stops at the first mismatch.
::testing::AssertionResult replay(trace::Workload w, Family family,
                                  double t_cpu, SupersetStats& stats) {
  const trace::Trace t = trace::make_workload(w, 20'000, 1);
  costben::TimingParams timing;
  timing.t_cpu = t_cpu;
  constexpr double kPrefetchRates[] = {0.25, 1.0, 4.0};
  const costben::PredictLimits full_limits;  // the depth-8 walk

  tree::PrefetchTree tree;
  tree::CandidateEnumerator full_walk;
  tree::CandidateEnumerator bounded_walk;
  markov::DeltaMarkov model;
  std::vector<PredictedBlock> full_buffer;
  std::vector<PredictedBlock> bounded_buffer;
  std::vector<double> dtpf;
  std::vector<std::pair<double, std::size_t>> order;

  for (std::size_t i = 0; i < t.size(); ++i) {
    const costben::BenefitTable table(
        timing, kPrefetchRates[i % std::size(kPrefetchRates)],
        full_limits.max_depth, dtpf);
    costben::PredictLimits bounded_limits = full_limits;
    bounded_limits.max_depth = table.payable_depth();
    stats.min_depth = std::min(stats.min_depth, table.payable_depth());
    stats.max_depth = std::max(stats.max_depth, table.payable_depth());

    std::span<const PredictedBlock> full;
    std::span<const PredictedBlock> bounded;
    if (family == Family::kTree) {
      tree.access(t[i].block);
      full = full_walk.enumerate(tree, tree.current(), full_limits);
      bounded = bounded_walk.enumerate(tree, tree.current(), bounded_limits);
    } else {
      model.observe(t[i].block);
      full_buffer.clear();
      bounded_buffer.clear();
      model.predict_into(full_limits, full_buffer);
      model.predict_into(bounded_limits, bounded_buffer);
      full = full_buffer;
      bounded = bounded_buffer;
    }
    ::testing::AssertionResult r = bounded_covers_full(
        full, bounded, table, full_limits.max_candidates, order, stats);
    if (!r) {
      return r << " (after access " << i << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

void report(const std::string& where, const SupersetStats& s) {
  std::cout << "[ superset  ] " << where << ": " << s.calls << " walks, D "
            << s.min_depth << ".." << s.max_depth << ", " << s.full_positive
            << " full-walk positives, recovered " << s.recovered_cap
            << " from the cap and " << s.recovered_dedup << " from dedup, "
            << s.tie_swaps << " tie swaps; " << s.bounded_capped
            << " bounded walks hit the cap\n";
}

class BoundedWalkSuperset : public ::testing::TestWithParam<Family> {};

TEST_P(BoundedWalkSuperset, CoversTheFullWalkAtThePaperTcpu) {
  const Family family = GetParam();
  for (const trace::Workload w : trace::all_workloads()) {
    SupersetStats stats;
    ASSERT_TRUE(replay(w, family, /*t_cpu=*/50.0, stats))
        << trace::workload_name(w);
    report(std::string(family_name(family)) + " " + trace::workload_name(w),
           stats);
    EXPECT_EQ(stats.max_depth, 1u);
    if (family == Family::kMarkov) {
      EXPECT_EQ(stats.tie_swaps, 0u);
    }
    if (w == trace::Workload::kCad) {
      // The two causes are not hypothetical: on cad the bound recovers
      // payable blocks the depth-8 walk lost.
      EXPECT_GT(stats.recovered_cap + stats.recovered_dedup, 0u);
    }
  }
}

TEST_P(BoundedWalkSuperset, CoversTheFullWalkWhenDisksOutrunCompute) {
  const Family family = GetParam();
  for (const trace::Workload w : trace::all_workloads()) {
    SupersetStats stats;
    ASSERT_TRUE(replay(w, family, /*t_cpu=*/2.0, stats))
        << trace::workload_name(w);
    report(std::string(family_name(family)) + " " + trace::workload_name(w) +
               " @ 2 ms",
           stats);
    EXPECT_GT(stats.min_depth, 1u);
    if (family == Family::kMarkov) {
      EXPECT_EQ(stats.tie_swaps, 0u);
    }
    EXPECT_LT(stats.max_depth, costben::PredictLimits{}.max_depth);
  }
}

INSTANTIATE_TEST_SUITE_P(Families, BoundedWalkSuperset,
                         ::testing::Values(Family::kTree, Family::kMarkov),
                         [](const auto& param_info) {
                           return std::string(param_info.param == Family::kTree
                                                  ? "Tree"
                                                  : "Markov");
                         });

}  // namespace
}  // namespace pfp::core
