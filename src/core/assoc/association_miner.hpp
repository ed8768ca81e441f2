// MITHRIL-style sporadic-association miner (arXiv:1705.07400, adapted).
//
// Where the LZ tree and the delta-Markov chain need immediate repetition
// to learn, MITHRIL mines *temporal co-occurrence*: block X tends to be
// requested shortly after block A, even when other traffic interleaves.
// The miner keeps a circular window of recent accesses; once an access
// falls `lookahead` positions behind the newest one its forward window is
// complete, and it is paired with every distinct later block inside that
// span.  Each source block owns a bounded, support-sorted association row
// (support = windows in which the pair co-occurred; the minimum observed
// gap approximates how soon the partner is needed).  Rows are LRU-bounded
// so memory stays constant, and each row ages by halving when its source
// has closed `age_threshold` windows — old associations fade unless the
// trace keeps re-minting them.
//
// Prediction for the block being accessed reads its row: probability is
// support / windows-closed (an empirical conditional frequency), depth is
// the clamped minimum gap.  Associations have no chain parent, so
// parent_probability follows the parentless convention documented in
// costben/candidate.hpp: 1.0 at depth 1, the candidate's own probability
// deeper — which reduces Eq. 1 to p_b * (dT_pf(d) - dT_pf(d-1)) and
// Eq. 14's overhead to zero.
#pragma once

#include <cstdint>
#include <vector>

#include "core/costben/candidate.hpp"
#include "trace/record.hpp"
#include "util/binary_io.hpp"
#include "util/flat_map.hpp"
#include "util/lru_list.hpp"

namespace pfp::core::assoc {

struct AssocConfig {
  /// Circular mining window over recent accesses; must exceed lookahead.
  std::uint32_t window = 256;
  /// Forward pairing distance: an access is associated with the distinct
  /// blocks seen in the next `lookahead` positions.
  std::uint32_t lookahead = 8;
  /// Associations kept per source block (weakest displaced when full).
  std::uint32_t row_width = 6;
  /// Bound on tracked source blocks (rows); LRU-recycled when full.
  std::uint32_t max_rows = 8192;
  /// Windows a source must close before its row ages by halving.
  std::uint32_t age_threshold = 4096;
  /// Windows a pair must co-occur in before it is worth predicting
  /// (MITHRIL's sporadic-noise filter).
  std::uint32_t min_support = 2;
};

class AssociationMiner {
 public:
  /// One mined association of a source row.
  struct Association {
    trace::BlockId block = 0;   ///< the partner block
    std::uint32_t support = 0;  ///< windows the pair co-occurred in
    std::uint32_t min_gap = 1;  ///< smallest observed forward distance
  };

  AssociationMiner() : AssociationMiner(AssocConfig{}) {}
  explicit AssociationMiner(AssocConfig config);

  [[nodiscard]] const AssocConfig& config() const noexcept { return config_; }

  /// Feeds one access: appends it to the window and mines the access
  /// whose forward window just completed.
  void observe(trace::BlockId block);

  /// Appends up to `limits.max_candidates` predictions for `block`
  /// (strongest association first); returns the number appended.
  std::size_t predict_into(trace::BlockId block,
                           const costben::PredictLimits& limits,
                           std::vector<costben::PredictedBlock>& out) const;

  /// Number of live source rows.
  [[nodiscard]] std::size_t row_count() const noexcept {
    return index_.size();
  }
  /// Number of live associations across all rows.
  [[nodiscard]] std::size_t association_count() const noexcept {
    return associations_;
  }

  /// What the miner's containers really hold (capacity, not size) —
  /// comparable across policies like NodePool::actual_memory_bytes().
  [[nodiscard]] std::size_t actual_memory_bytes() const noexcept;

  /// "PFAS" v1: rows in LRU-to-MRU order so a round trip preserves the
  /// eviction order exactly.  The circular window is warm-up state and
  /// intentionally not persisted.
  void serialize(std::vector<std::uint8_t>& out) const;
  /// Reads one serialize() image from `in` under `config`'s bounds
  /// (bytes after it are the caller's); throws std::runtime_error
  /// ("association stream: ...") on malformed input, on rows exceeding the
  /// configured bounds, or on a row count the bytes left cannot hold.
  static AssociationMiner deserialize(util::ByteReader& in, AssocConfig config);

  /// SIM_AUDIT sweep: index/rows/LRU/free-list consistency, per-row
  /// support ordering, gap bounds and support <= occurrence invariants
  /// (no-op unless PFP_AUDIT_ENABLED).
  void audit() const;

 private:
  struct Row {
    trace::BlockId source = 0;     ///< the block keying this row
    std::uint32_t occurrences = 0; ///< forward windows closed for it
    std::uint32_t size = 0;        ///< live entries in the arena slice
  };

  [[nodiscard]] Association* row_slice(std::uint32_t slot) noexcept {
    return arena_.data() + static_cast<std::size_t>(slot) * config_.row_width;
  }
  [[nodiscard]] const Association* row_slice(std::uint32_t slot)
      const noexcept {
    return arena_.data() + static_cast<std::size_t>(slot) * config_.row_width;
  }

  /// Row slot for `source`, allocating (and evicting the LRU row if the
  /// table is full) when absent.  Touches the LRU either way.
  std::uint32_t ensure_row(trace::BlockId source);
  /// Mines the completed forward window of the access at serial `u`.
  void close_window(std::uint64_t u);
  void record_pair(std::uint32_t slot, trace::BlockId partner,
                   std::uint32_t gap);
  /// Halves the row's occurrence counter and every support (aging);
  /// zero-support associations drop out.
  void age_row(std::uint32_t slot);

  AssocConfig config_;
  util::FlatMap<trace::BlockId, std::uint32_t> index_;  ///< source -> slot
  std::vector<Row> rows_;
  std::vector<Association> arena_;  ///< rows_[i] owns slice i*row_width
  util::LruList lru_;               ///< over row slots, front = MRU
  std::vector<std::uint32_t> free_;  ///< recycled row slots
  std::size_t associations_ = 0;

  std::vector<trace::BlockId> window_;  ///< circular, indexed by serial
  std::uint64_t serial_ = 0;            ///< accesses observed so far
};

}  // namespace pfp::core::assoc
