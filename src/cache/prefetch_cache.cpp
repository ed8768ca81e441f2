#include "cache/prefetch_cache.hpp"

#include "util/assert.hpp"
#include "util/audit.hpp"

namespace pfp::cache {

PrefetchCache::PrefetchCache(std::size_t max_blocks)
    : max_blocks_(max_blocks) {
  PFP_REQUIRE(max_blocks >= 1);
  slots_.resize(max_blocks);
  slot_generation_.resize(max_blocks, 0);
  free_slots_.reserve(max_blocks);
  for (std::size_t i = max_blocks; i > 0; --i) {
    free_slots_.push_back(static_cast<std::uint32_t>(i - 1));
  }
  insert_lru_.resize(max_blocks);
  obl_lru_.resize(max_blocks);
  map_.reserve(max_blocks * 2);
}

std::optional<PrefetchEntry> PrefetchCache::lookup(BlockId block) const {
  const auto it = map_.find(block);
  if (it == map_.end()) {
    return std::nullopt;
  }
  return slots_[it->second];
}

void PrefetchCache::insert(const PrefetchEntry& entry) {
  PFP_REQUIRE(!map_.contains(entry.block));
  PFP_REQUIRE(!free_slots_.empty());
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  slots_[slot] = entry;
  slot_generation_[slot] = ++generation_;
  map_.emplace(entry.block, slot);
  insert_lru_.push_front(slot);
  if (entry.obl) {
    obl_lru_.push_front(slot);
  }
  heap_.push(HeapItem{entry.eject_cost, slot, slot_generation_[slot]});
  PFP_AUDIT_SWEEP(*this);
}

PrefetchEntry PrefetchCache::remove(BlockId block) {
  const auto it = map_.find(block);
  PFP_REQUIRE(it != map_.end());
  const std::uint32_t slot = it->second;
  const PrefetchEntry entry = slots_[slot];
  map_.erase(it);
  insert_lru_.erase(slot);
  if (entry.obl) {
    obl_lru_.erase(slot);
  }
  slot_generation_[slot] = ++generation_;  // invalidates heap items
  free_slots_.push_back(slot);
  PFP_AUDIT_SWEEP(*this);
  return entry;
}

void PrefetchCache::prune_heap() const {
  while (!heap_.empty()) {
    const HeapItem& top = heap_.top();
    if (slot_generation_[top.slot] == top.generation) {
      return;
    }
    heap_.pop();
  }
}

std::optional<PrefetchEntry> PrefetchCache::cheapest() const {
  prune_heap();
  if (heap_.empty()) {
    return std::nullopt;
  }
  return slots_[heap_.top().slot];
}

std::optional<BlockId> PrefetchCache::oldest_obl() const {
  const auto slot = obl_lru_.back();
  if (slot == util::LruList::npos) {
    return std::nullopt;
  }
  return slots_[slot].block;
}

std::optional<BlockId> PrefetchCache::oldest_any() const {
  const auto slot = insert_lru_.back();
  if (slot == util::LruList::npos) {
    return std::nullopt;
  }
  return slots_[slot].block;
}

std::vector<PrefetchEntry> PrefetchCache::entries() const {
  std::vector<PrefetchEntry> out;
  out.reserve(map_.size());
  for (const auto& [block, slot] : map_) {
    out.push_back(slots_[slot]);
  }
  return out;
}

void PrefetchCache::audit() const {
#if PFP_AUDIT_ENABLED
  PFP_AUDIT("PrefetchCache", map_.size() == insert_lru_.size(),
            "resident map and insertion list disagree on size");
  PFP_AUDIT("PrefetchCache", map_.size() + free_slots_.size() == max_blocks_,
            "slot accounting leak (resident + free != capacity)");
  std::size_t obl_seen = 0;
  for (const auto& [block, slot] : map_) {
    const PrefetchEntry& entry = slots_[slot];
    PFP_AUDIT("PrefetchCache", entry.block == block,
              "mapped slot stores a different block");
    PFP_AUDIT("PrefetchCache", insert_lru_.contains(slot),
              "resident slot missing from the insertion recency list");
    PFP_AUDIT("PrefetchCache", entry.obl == obl_lru_.contains(slot),
              "OBL flag disagrees with OBL recency list membership");
    PFP_AUDIT("PrefetchCache",
              entry.probability >= 0.0 && entry.probability <= 1.0,
              "stored access probability outside [0, 1]");
    if (entry.obl) {
      ++obl_seen;
    }
  }
  PFP_AUDIT("PrefetchCache", obl_seen == obl_lru_.size(),
            "OBL entry count does not match OBL list size");
#endif
}

}  // namespace pfp::cache
