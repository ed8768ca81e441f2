// Pangloss-style delta-Markov predictor (arXiv:1906.00877, adapted).
//
// The model learns the first-order chain over *address deltas*: after
// seeing consecutive blocks a, b, c it records the transition
// (b - a) -> (c - b).  Deltas generalize across absolute addresses, so a
// strided or looping workload collapses onto a handful of rows where a
// per-block table would sprawl.  Each context delta owns one compressed
// row: a fixed-width, count-sorted list of successor deltas (the paper's
// "compressed Markov chain" rows), and the whole table is LRU-bounded so
// memory stays constant no matter how wild the trace is.
//
// Aging: when a row's hottest count saturates, every count in the row is
// halved (zeros drop out).  Stale transitions therefore decay instead of
// pinning the row forever — the bounded-row analogue of Pangloss's LRU
// position-as-probability trick.
//
// Prediction walks the chain greedily from the last observed delta:
// depth-1 candidates are the current row's successors; deeper candidates
// extend each depth-1 candidate along the most probable path, multiplying
// step probabilities exactly like the LZ tree multiplies edge
// probabilities (Eq. 1's p_b), with the previous chain element's
// probability as p_x.  The markov policy walks only to the period's
// payable depth (costben::BenefitTable::payable_depth), past which Eq. 1
// prices every chain entry <= 0.  At the paper's constants that depth
// is 1: the walk emits the current row alone (at most row_width distinct
// blocks), and the dedup table and the max_candidates selection do
// nothing.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "core/costben/candidate.hpp"
#include "trace/record.hpp"
#include "util/binary_io.hpp"
#include "util/flat_map.hpp"
#include "util/lru_list.hpp"

namespace pfp::core::markov {

struct MarkovConfig {
  /// Bound on tracked context deltas (rows); the least recently updated
  /// row is recycled when the table is full.
  std::uint32_t max_contexts = 4096;
  /// Successor deltas kept per row; the weakest is displaced when a new
  /// successor arrives at a full row.
  std::uint32_t row_width = 8;
  /// Count saturation threshold: when a successor's count reaches this,
  /// the whole row's counts are halved (aging).
  std::uint32_t max_count = 255;
};

class DeltaMarkov {
 public:
  /// One successor-delta entry of a row.
  struct Transition {
    std::int64_t delta = 0;
    std::uint32_t count = 0;
  };

  DeltaMarkov() : DeltaMarkov(MarkovConfig{}) {}
  explicit DeltaMarkov(MarkovConfig config);

  [[nodiscard]] const MarkovConfig& config() const noexcept { return config_; }

  /// Feeds one access; updates the chain with the (previous delta ->
  /// new delta) transition once two deltas exist.
  void observe(trace::BlockId block);

  /// Appends up to `limits.max_candidates` predictions for the current
  /// position; returns the number appended.  Candidates carry
  /// chain-product probabilities and the previous chain element's
  /// probability as parent_probability.  A block reached by several
  /// chains appears once, as its most probable entry (then its
  /// shallowest; an exact tie keeps the entry the walk reached first).
  ///
  /// The result is the candidate *set*, in no particular order: when more
  /// survive than the cap, the best `max_candidates` under ranks_before
  /// are kept.  Callers that want a ranked list sort by ranks_before;
  /// the cost-benefit controller ranks only what it prices positive.
  ///
  /// One pass, in place in the appended region of `out` (whose capacity
  /// therefore reaches the walk's size), allocation-free at steady state
  /// when `out` is reused: the chain walk memoizes each context's greedy
  /// successor for the call, so converging chains cost one index probe
  /// per distinct context, and duplicates are dropped through a
  /// generation-stamped table.
  std::size_t predict_into(const costben::PredictLimits& limits,
                           std::vector<costben::PredictedBlock>& out) const;

  /// The rank of predictions (costben::RankOrder; strict over a
  /// predict_into result, whose blocks are distinct).
  static constexpr costben::RankOrder ranks_before{};

  /// The successor deltas recorded after `context`, most frequent first
  /// (empty when the context has no row); valid until the next observe().
  [[nodiscard]] std::span<const Transition> successors(
      std::int64_t context) const;

  /// Number of live context rows.
  [[nodiscard]] std::size_t row_count() const noexcept {
    return index_.size();
  }
  /// Number of live transitions across all rows.
  [[nodiscard]] std::size_t transition_count() const noexcept {
    return transitions_;
  }

  /// What the model's containers really hold (capacity, not size) —
  /// comparable across policies like NodePool::actual_memory_bytes().
  /// Per-call prediction staging is not model state and is not counted,
  /// so a restored model reports what the original reported.
  [[nodiscard]] std::size_t actual_memory_bytes() const noexcept;

  /// "PFMK" v1: rows in LRU-to-MRU order so a round trip preserves the
  /// eviction order exactly.  The transient parse position (previous
  /// block / delta) is warm-up state and intentionally not persisted.
  void serialize(std::vector<std::uint8_t>& out) const;
  /// Reads one serialize() image from `in` under `config`'s bounds
  /// (bytes after it are the caller's); throws std::runtime_error
  /// ("delta-markov stream: ...") on malformed input, on rows exceeding the
  /// configured bounds, or on a row count the bytes left cannot hold.
  static DeltaMarkov deserialize(util::ByteReader& in, MarkovConfig config);

  /// SIM_AUDIT sweep: index/rows/LRU/free-list consistency, per-row
  /// count ordering and totals (no-op unless PFP_AUDIT_ENABLED).
  void audit() const;

 private:
  struct Row {
    std::int64_t context = 0;   ///< the delta keying this row
    std::uint64_t total = 0;    ///< sum of live transition counts
    std::uint32_t size = 0;     ///< live entries in the arena slice
  };

  /// One context's greedy successor, memoized for one predict_into call
  /// (a stale generation marks the slot empty).
  struct StepMemo {
    std::int64_t context = 0;
    std::int64_t delta = 0;  ///< the row's most probable successor delta
    double step = 0.0;       ///< its count / row total
    std::uint32_t generation = 0;
    bool live = false;       ///< false: no row or an empty one (chain ends)
  };
  /// Generation-stamped open-addressing dedup slot: a block and the index
  /// of its surviving entry among the walked entries.
  struct SeenSlot {
    std::uint64_t block = 0;
    std::uint32_t generation = 0;
    std::uint32_t index = 0;
  };

  static constexpr unsigned kMemoBits = 6;  // 64 direct-mapped slots

  [[nodiscard]] Transition* row_slice(std::uint32_t slot) noexcept {
    return arena_.data() + static_cast<std::size_t>(slot) * config_.row_width;
  }
  [[nodiscard]] const Transition* row_slice(std::uint32_t slot) const noexcept {
    return arena_.data() + static_cast<std::size_t>(slot) * config_.row_width;
  }

  /// Row slot for `context`, allocating (and evicting the LRU row if the
  /// table is full) when absent.  Touches the LRU either way.
  std::uint32_t ensure_row(std::int64_t context);
  void record(std::int64_t context, std::int64_t next_delta);
  /// Halves every count in the row, dropping zeros (aging).
  void decay_row(std::uint32_t slot);

  // predict_into's passes, in call order.
  /// Starts a call: a fresh generation empties both stamped tables.
  void next_generation() const;
  /// Appends every chain entry from the row in `slot` to `out`.
  void walk_chains(std::uint32_t slot, const costben::PredictLimits& limits,
                   std::vector<costben::PredictedBlock>& out) const;
  /// The memoized greedy successor of `context`.
  [[nodiscard]] const StepMemo& successor(std::int64_t context) const;
  /// Compacts `entries` in place to one entry per block; returns the
  /// survivors.
  [[nodiscard]] std::size_t dedup_by_block(
      std::span<costben::PredictedBlock> entries) const;

  MarkovConfig config_;
  util::FlatMap<std::int64_t, std::uint32_t> index_;  ///< context -> slot
  std::vector<Row> rows_;
  std::vector<Transition> arena_;  ///< rows_[i] owns slice i*row_width
  util::LruList lru_;              ///< over row slots, front = MRU
  std::vector<std::uint32_t> free_;  ///< recycled row slots
  std::size_t transitions_ = 0;

  // Parse position: the last observed block and delta.
  trace::BlockId prev_block_ = 0;
  std::int64_t prev_delta_ = 0;
  bool has_prev_block_ = false;
  bool has_prev_delta_ = false;

  // predict_into's per-call tables, reused across calls so prediction
  // allocates nothing at steady state (the walk stages its entries in the
  // caller's `out`).  Logically const: prediction never mutates the chain
  // itself.
  mutable std::array<StepMemo, std::size_t{1} << kMemoBits> memo_{};
  mutable std::vector<SeenSlot> seen_;  ///< power-of-two dedup table
  mutable std::uint32_t generation_ = 0;
};

}  // namespace pfp::core::markov
