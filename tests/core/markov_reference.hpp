// Reference delta-Markov prediction for differential tests.
//
// The obviously correct form of DeltaMarkov::predict_into: walk every
// greedy chain with one index probe per step, sort all entries by
// (probability desc, block asc, depth asc) with std::sort, then keep the
// first occurrence of each block up to the cap.  The result is a ranked
// list; predict_into's unranked set is compared with it after ranking.
// It reads the model only through its public successors() view and
// mirrors the parse position itself, so it shares no code with the
// production pass it checks.
//
// std::sort is not stable: two entries equal in (probability, block,
// depth) but with different parent probabilities may surface in either
// order, so that one field has no single specified answer.  The
// reference reports every parent probability such a tie allows and
// counts the ties.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/markov/markov_model.hpp"

namespace pfp::core::markov::testing {

/// The model's parse position, mirrored from the blocks fed to it.
struct ParsePosition {
  trace::BlockId block = 0;
  std::int64_t delta = 0;
  bool has_block = false;
  bool has_delta = false;

  /// Feeds `b` to `model` and tracks the position it leaves behind.
  void observe(DeltaMarkov& model, trace::BlockId b) {
    model.observe(b);
    if (has_block) {
      delta = static_cast<std::int64_t>(b) - static_cast<std::int64_t>(block);
      has_delta = true;
    }
    block = b;
    has_block = true;
  }
};

struct ReferenceEntry {
  costben::PredictedBlock candidate;
  /// Every parent probability the unstable sort may have put first.
  std::vector<double> allowed_parents;
};

struct ReferenceResult {
  std::vector<ReferenceEntry> entries;
  std::size_t ambiguous_ties = 0;  ///< entries with more than one allowed p_x
};

inline ReferenceResult reference_predict(const DeltaMarkov& model,
                                         const ParsePosition& pos,
                                         const costben::PredictLimits& limits) {
  ReferenceResult result;
  if (!pos.has_delta || limits.max_candidates == 0) {
    return result;
  }
  const auto row_total = [](std::span<const DeltaMarkov::Transition> row) {
    std::uint64_t total = 0;
    for (const DeltaMarkov::Transition& t : row) {
      total += t.count;
    }
    return total;
  };
  const std::span<const DeltaMarkov::Transition> row =
      model.successors(pos.delta);
  const std::uint64_t total = row_total(row);
  std::vector<costben::PredictedBlock> all;
  for (const DeltaMarkov::Transition& t : row) {
    const double p1 =
        static_cast<double>(t.count) / static_cast<double>(total);
    if (p1 < limits.min_probability) {
      break;
    }
    const std::int64_t first = static_cast<std::int64_t>(pos.block) + t.delta;
    if (first < 0) {
      continue;
    }
    all.push_back({static_cast<std::uint64_t>(first), p1, 1.0, 1});
    std::int64_t base = first;
    std::int64_t context = t.delta;
    double p_prev = p1;
    for (std::uint32_t depth = 2; depth <= limits.max_depth; ++depth) {
      const std::span<const DeltaMarkov::Transition> next =
          model.successors(context);
      if (next.empty()) {
        break;
      }
      const double p = p_prev * (static_cast<double>(next[0].count) /
                                 static_cast<double>(row_total(next)));
      if (p < limits.min_probability) {
        break;
      }
      base += next[0].delta;
      if (base < 0) {
        break;
      }
      all.push_back({static_cast<std::uint64_t>(base), p, p_prev, depth});
      p_prev = p;
      context = next[0].delta;
    }
  }

  std::sort(all.begin(), all.end(),
            [](const costben::PredictedBlock& a,
               const costben::PredictedBlock& b) {
              if (a.probability != b.probability) {
                return a.probability > b.probability;
              }
              if (a.block != b.block) {
                return a.block < b.block;
              }
              return a.depth < b.depth;
            });
  std::unordered_set<std::uint64_t> seen;
  for (std::size_t i = 0;
       i < all.size() && result.entries.size() < limits.max_candidates; ++i) {
    const costben::PredictedBlock& c = all[i];
    if (!seen.insert(c.block).second) {
      continue;  // chains can converge: the first occurrence wins
    }
    // Entries equal in (p, block, depth) sort adjacent, in either order.
    ReferenceEntry entry{c, {c.parent_probability}};
    for (std::size_t j = i + 1;
         j < all.size() && all[j].block == c.block &&
         all[j].probability == c.probability && all[j].depth == c.depth;
         ++j) {
      if (std::find(entry.allowed_parents.begin(), entry.allowed_parents.end(),
                    all[j].parent_probability) ==
          entry.allowed_parents.end()) {
        entry.allowed_parents.push_back(all[j].parent_probability);
      }
    }
    if (entry.allowed_parents.size() > 1) {
      ++result.ambiguous_ties;
    }
    result.entries.push_back(std::move(entry));
  }
  return result;
}

/// Runs predict_into on `model` after `prefix` and compares the set it
/// appends field by field against the reference: the prefix untouched,
/// the return value the appended count, and, once the appended entries
/// are ranked with DeltaMarkov::ranks_before, every entry equal (parent
/// probability within the allowed set).  Adds the reference's ambiguous
/// ties to `ambiguous_ties`.
inline ::testing::AssertionResult matches_reference(
    const DeltaMarkov& model, const ParsePosition& pos,
    const costben::PredictLimits& limits, std::size_t& ambiguous_ties,
    const std::vector<costben::PredictedBlock>& prefix = {}) {
  const ReferenceResult want = reference_predict(model, pos, limits);
  ambiguous_ties += want.ambiguous_ties;
  std::vector<costben::PredictedBlock> got = prefix;
  const std::size_t appended = model.predict_into(limits, got);
  if (appended != want.entries.size() ||
      got.size() != prefix.size() + appended) {
    return ::testing::AssertionFailure()
           << "appended " << appended << " (out grew by "
           << got.size() - prefix.size() << "), reference has "
           << want.entries.size();
  }
  for (std::size_t i = 0; i < prefix.size(); ++i) {
    const costben::PredictedBlock& a = got[i];
    const costben::PredictedBlock& b = prefix[i];
    if (a.block != b.block || a.probability != b.probability ||
        a.parent_probability != b.parent_probability || a.depth != b.depth) {
      return ::testing::AssertionFailure() << "prefix entry " << i
                                           << " was modified";
    }
  }
  // predict_into returns a set; the reference is ranked.
  std::sort(got.begin() + static_cast<std::ptrdiff_t>(prefix.size()),
            got.end(), DeltaMarkov::ranks_before);
  for (std::size_t i = 0; i < appended; ++i) {
    const costben::PredictedBlock& a = got[prefix.size() + i];
    const ReferenceEntry& b = want.entries[i];
    const bool parent_ok =
        std::find(b.allowed_parents.begin(), b.allowed_parents.end(),
                  a.parent_probability) != b.allowed_parents.end();
    if (a.block != b.candidate.block ||
        a.probability != b.candidate.probability ||
        a.depth != b.candidate.depth || !parent_ok) {
      return ::testing::AssertionFailure()
             << "entry " << i << ": got {block " << a.block << ", p "
             << a.probability << ", p_x " << a.parent_probability
             << ", depth " << a.depth << "}, reference {block "
             << b.candidate.block << ", p " << b.candidate.probability
             << ", p_x " << b.candidate.parent_probability << ", depth "
             << b.candidate.depth << "}";
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace pfp::core::markov::testing
