// Prefetch cache: blocks fetched ahead of use, not yet referenced
// (Figure 2).
//
// Each entry carries the prediction metadata the cost model needs: the
// access probability p_b and tree distance d_b at prefetch time, plus an
// ejection cost precomputed by the policy from Equation 11 (the cache is
// mechanism; pricing is the policy's job).  Victim selection returns the
// entry with the lowest stored ejection cost, via a lazy-deletion min-heap
// (O(log n) amortized).
//
// One-block-lookahead entries are tagged `obl` and additionally threaded
// on their own recency list so the next-limit 10 %-of-cache quota can be
// enforced in O(1) (Section 9: "we limit the fraction of the cache
// devoted to prefetch blocks to 10%").
#pragma once

#include <cstdint>
#include <optional>
#include <queue>
#include <vector>

#include "trace/record.hpp"
#include "util/flat_map.hpp"
#include "util/lru_list.hpp"

namespace pfp::cache {

using trace::BlockId;

struct PrefetchEntry {
  BlockId block = 0;
  double probability = 0.0;   ///< p_b when the prefetch was issued
  std::uint32_t depth = 0;    ///< d_b when the prefetch was issued
  double eject_cost = 0.0;    ///< policy-computed C_pr(b)
  bool obl = false;           ///< one-block-lookahead (quota-managed)
  std::uint64_t issued_period = 0;  ///< access period of the prefetch
  /// Virtual time the disk read completes (set at issue from the disk
  /// model); a reference before this time stalls for the remainder.
  double completion_ms = 0.0;
};

class PrefetchCache {
 public:
  explicit PrefetchCache(std::size_t max_blocks);

  /// Hit test without promotion semantics (prefetch blocks have no
  /// recency of their own once referenced — they migrate to the demand
  /// cache).  Returns the entry if resident.
  [[nodiscard]] std::optional<PrefetchEntry> lookup(BlockId block) const;

  [[nodiscard]] bool contains(BlockId block) const {
    return map_.contains(block);
  }

  /// Inserts a prefetched block.  Must not be resident; cache must not be
  /// full (the caller reclaims buffers first).
  void insert(const PrefetchEntry& entry);

  /// Removes a resident block (on reference-migration or ejection) and
  /// returns its entry.
  PrefetchEntry remove(BlockId block);

  /// Entry with the smallest eject_cost, if any (no mutation).
  [[nodiscard]] std::optional<PrefetchEntry> cheapest() const;

  /// Least recently inserted OBL entry, if any.
  [[nodiscard]] std::optional<BlockId> oldest_obl() const;

  /// Least recently inserted entry of any kind, if any.
  [[nodiscard]] std::optional<BlockId> oldest_any() const;

  [[nodiscard]] std::size_t size() const noexcept { return map_.size(); }
  [[nodiscard]] bool empty() const noexcept { return map_.empty(); }
  [[nodiscard]] std::size_t obl_count() const noexcept {
    return obl_lru_.size();
  }
  [[nodiscard]] std::size_t max_blocks() const noexcept { return max_blocks_; }

  /// Resident entries in unspecified order (tests, introspection; O(n)).
  [[nodiscard]] std::vector<PrefetchEntry> entries() const;

  /// SIM_AUDIT sweep: slot accounting, insertion/OBL list agreement, OBL
  /// flag consistency, probability bounds (docs/static-analysis.md).
  /// No-op unless compiled with SIM_AUDIT >= 1.
  void audit() const;

 private:
  friend struct AuditTestAccess;  // corruption hooks for audit tests

  struct HeapItem {
    double cost;
    std::uint32_t slot;
    std::uint64_t generation;
    bool operator>(const HeapItem& other) const {
      return cost > other.cost;
    }
  };

  void prune_heap() const;

  std::size_t max_blocks_;
  std::vector<PrefetchEntry> slots_;
  std::vector<std::uint64_t> slot_generation_;
  std::vector<std::uint32_t> free_slots_;
  util::FlatMap<BlockId, std::uint32_t> map_;
  util::LruList insert_lru_;  ///< all entries, insertion recency
  util::LruList obl_lru_;     ///< OBL entries only
  mutable std::priority_queue<HeapItem, std::vector<HeapItem>,
                              std::greater<HeapItem>>
      heap_;
  std::uint64_t generation_ = 0;
};

}  // namespace pfp::cache
