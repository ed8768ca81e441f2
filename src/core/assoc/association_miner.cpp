#include "core/assoc/association_miner.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <utility>

#include "util/assert.hpp"
#include "util/audit.hpp"
#include "util/binary_io.hpp"

namespace pfp::core::assoc {

namespace {

constexpr std::array<char, 4> kMagic = {'P', 'F', 'A', 'S'};
constexpr std::uint16_t kStreamVersion = 1;
/// Smallest possible row record (an empty row); bounds a row count by
/// the bytes present.
constexpr std::size_t kRowHeaderBytes = 8 + 4 + 4;

[[noreturn]] void corrupt(const char* what) {
  throw std::runtime_error(std::string("association stream: ") + what);
}

}  // namespace

AssociationMiner::AssociationMiner(AssocConfig config)
    : config_(config), lru_(config.max_rows) {
  PFP_REQUIRE(config_.lookahead >= 1);
  // The mined access and its full forward window must coexist in the
  // circular buffer.
  PFP_REQUIRE(config_.window > config_.lookahead);
  PFP_REQUIRE(config_.row_width >= 1);
  PFP_REQUIRE(config_.max_rows >= 1);
  // age_threshold == 1 would halve a row's single occurrence to zero.
  PFP_REQUIRE(config_.age_threshold >= 2);
  index_.reserve(config_.max_rows);
  window_.resize(config_.window, 0);
}

void AssociationMiner::observe(trace::BlockId block) {
  window_[serial_ % config_.window] = block;
  if (serial_ >= config_.lookahead) {
    close_window(serial_ - config_.lookahead);
  }
  ++serial_;
  PFP_AUDIT_SWEEP(*this);
}

void AssociationMiner::close_window(std::uint64_t u) {
  const trace::BlockId source = window_[u % config_.window];
  const std::uint32_t slot = ensure_row(source);
  for (std::uint64_t v = u + 1; v <= u + config_.lookahead; ++v) {
    const trace::BlockId partner = window_[v % config_.window];
    if (partner == source) {
      continue;
    }
    // Count each distinct partner once per window, so support can never
    // outgrow the occurrence counter (probability stays a frequency).
    bool duplicate = false;
    for (std::uint64_t w = u + 1; w < v; ++w) {
      if (window_[w % config_.window] == partner) {
        duplicate = true;
        break;
      }
    }
    if (duplicate) {
      continue;
    }
    record_pair(slot, partner, static_cast<std::uint32_t>(v - u));
  }
  Row& row = rows_[slot];
  ++row.occurrences;
  if (row.occurrences >= config_.age_threshold) {
    age_row(slot);
  }
}

std::uint32_t AssociationMiner::ensure_row(trace::BlockId source) {
  const auto it = index_.find(source);
  if (it != index_.end()) {
    lru_.touch(it->second);
    return it->second;
  }
  std::uint32_t slot = 0;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else if (rows_.size() < config_.max_rows) {
    slot = static_cast<std::uint32_t>(rows_.size());
    rows_.push_back(Row{});
    arena_.resize(rows_.size() * config_.row_width);
  } else {
    // Table full: recycle the least recently mined row.
    slot = lru_.pop_back();
    Row& victim = rows_[slot];
    index_.erase(victim.source);
    associations_ -= victim.size;
  }
  rows_[slot] = Row{source, 0, 0};
  index_.emplace(source, slot);
  lru_.push_front(slot);
  return slot;
}

void AssociationMiner::record_pair(std::uint32_t slot, trace::BlockId partner,
                                   std::uint32_t gap) {
  Row& row = rows_[slot];
  Association* a = row_slice(slot);

  std::uint32_t i = 0;
  while (i < row.size && a[i].block != partner) {
    ++i;
  }
  if (i < row.size) {
    ++a[i].support;
    a[i].min_gap = std::min(a[i].min_gap, gap);
    // Bubble toward the front to keep the descending-support order.
    while (i > 0 && a[i - 1].support < a[i].support) {
      std::swap(a[i - 1], a[i]);
      --i;
    }
  } else if (row.size < config_.row_width) {
    a[row.size] = Association{partner, 1, gap};
    ++row.size;
    ++associations_;
  } else {
    // Full row: the weakest association (last, by the sorted invariant)
    // makes room for the newcomer.
    a[row.size - 1] = Association{partner, 1, gap};
  }
}

void AssociationMiner::age_row(std::uint32_t slot) {
  Row& row = rows_[slot];
  Association* a = row_slice(slot);
  std::uint32_t kept = 0;
  for (std::uint32_t i = 0; i < row.size; ++i) {
    const std::uint32_t halved = a[i].support / 2;
    if (halved == 0) {
      continue;  // sporadic noise fades out entirely
    }
    a[kept] = Association{a[i].block, halved, a[i].min_gap};
    ++kept;
  }
  associations_ -= row.size - kept;
  row.size = kept;
  row.occurrences /= 2;
}

std::size_t AssociationMiner::predict_into(
    trace::BlockId block, const costben::PredictLimits& limits,
    std::vector<costben::PredictedBlock>& out) const {
  if (limits.max_candidates == 0) {
    return 0;
  }
  const auto it = index_.find(block);
  if (it == index_.end()) {
    return 0;  // block never closed a window: nothing mined for it
  }
  const Row& row = rows_[it->second];
  const Association* a = row_slice(it->second);
  std::size_t appended = 0;
  for (std::uint32_t i = 0; i < row.size && appended < limits.max_candidates;
       ++i) {
    if (a[i].support < config_.min_support) {
      break;  // sorted descending: everything after is weaker
    }
    const double p = static_cast<double>(a[i].support) /
                     static_cast<double>(row.occurrences);
    if (p < limits.min_probability) {
      break;  // same denominator: probability order matches support order
    }
    const std::uint32_t depth =
        std::min(std::max(a[i].min_gap, 1u), limits.max_depth);
    // Parentless-candidate convention (see costben/candidate.hpp): 1.0 at
    // depth 1, own probability deeper.
    const double parent = depth == 1 ? 1.0 : p;
    out.push_back(costben::PredictedBlock{a[i].block, p, parent, depth});
    ++appended;
  }
  return appended;
}

std::size_t AssociationMiner::actual_memory_bytes() const noexcept {
  return rows_.capacity() * sizeof(Row) +
         arena_.capacity() * sizeof(Association) +
         index_.capacity() * (sizeof(std::pair<trace::BlockId, std::uint32_t>) +
                              sizeof(std::uint8_t)) +
         lru_.capacity() * 2 * sizeof(std::uint32_t) +
         free_.capacity() * sizeof(std::uint32_t) +
         window_.capacity() * sizeof(trace::BlockId);
}

void AssociationMiner::serialize(std::vector<std::uint8_t>& out) const {
  out.insert(out.end(), kMagic.begin(), kMagic.end());
  util::put_u16(out, kStreamVersion);
  util::put_u64(out, index_.size());
  // LRU-to-MRU so the reader's push_front replays the recency order.
  for (std::uint32_t slot = lru_.back(); slot != util::LruList::npos;
       slot = lru_.prev(slot)) {
    const Row& row = rows_[slot];
    util::put_u64(out, row.source);
    util::put_u32(out, row.occurrences);
    util::put_u32(out, row.size);
    const Association* a = row_slice(slot);
    for (std::uint32_t i = 0; i < row.size; ++i) {
      util::put_u64(out, a[i].block);
      util::put_u32(out, a[i].support);
      util::put_u32(out, a[i].min_gap);
    }
  }
}

AssociationMiner AssociationMiner::deserialize(util::ByteReader& in,
                                               AssocConfig config) {
  if (!in.read_magic(kMagic)) {
    corrupt("bad magic");
  }
  if (in.read_u16() != kStreamVersion) {
    corrupt("unsupported version");
  }
  AssociationMiner miner(config);
  const std::uint64_t row_count = in.read_u64();
  if (!in.ok() || row_count > config.max_rows) {
    corrupt("row count exceeds the configured bound");
  }
  if (row_count > in.remaining() / kRowHeaderBytes) {
    corrupt("row count exceeds the bytes present");
  }
  for (std::uint64_t r = 0; r < row_count; ++r) {
    const trace::BlockId source = in.read_u64();
    const std::uint32_t occurrences = in.read_u32();
    const std::uint32_t size = in.read_u32();
    if (!in.ok()) {
      corrupt("truncated row header");
    }
    if (occurrences == 0) {
      corrupt("row with no closed windows");
    }
    if (size > config.row_width) {
      corrupt("row width exceeds the configured bound");
    }
    const std::uint32_t slot = miner.ensure_row(source);
    if (miner.rows_[slot].size != 0 || miner.index_.size() != r + 1) {
      corrupt("duplicate source row");
    }
    Row& row = miner.rows_[slot];
    row.occurrences = occurrences;
    Association* a = miner.row_slice(slot);
    for (std::uint32_t i = 0; i < size; ++i) {
      const trace::BlockId partner = in.read_u64();
      const std::uint32_t support = in.read_u32();
      const std::uint32_t gap = in.read_u32();
      if (!in.ok()) {
        corrupt("truncated association");
      }
      if (support == 0 || support > occurrences) {
        corrupt("association support outside (0, occurrences]");
      }
      if (partner == source) {
        corrupt("self-association");
      }
      if (gap < 1 || gap > config.lookahead) {
        corrupt("association gap outside the lookahead");
      }
      if (i > 0 && a[i - 1].support < support) {
        corrupt("associations not in descending-support order");
      }
      a[i] = Association{partner, support, gap};
    }
    row.size = size;
    miner.associations_ += size;
  }
  PFP_AUDIT_SWEEP(miner);
  return miner;
}

void AssociationMiner::audit() const {
#if PFP_AUDIT_ENABLED
  PFP_AUDIT("AssociationMiner", rows_.size() <= config_.max_rows,
            "row storage within the configured bound");
  PFP_AUDIT("AssociationMiner", index_.size() == lru_.size(),
            "every indexed row is LRU-linked");
  PFP_AUDIT("AssociationMiner", index_.size() + free_.size() == rows_.size(),
            "slots are either live or on the free list");
  std::size_t live_associations = 0;
  for (const auto& [source, slot] : index_) {
    PFP_AUDIT("AssociationMiner", slot < rows_.size(),
              "index points at a slot");
    PFP_AUDIT("AssociationMiner", rows_[slot].source == source,
              "row source matches its index key");
    PFP_AUDIT("AssociationMiner", lru_.contains(slot),
              "live row is LRU-linked");
    const Row& row = rows_[slot];
    PFP_AUDIT("AssociationMiner", row.occurrences >= 1,
              "live row has closed a window");
    PFP_AUDIT("AssociationMiner", row.size <= config_.row_width,
              "row within the configured width");
    const Association* a = row_slice(slot);
    for (std::uint32_t i = 0; i < row.size; ++i) {
      PFP_AUDIT("AssociationMiner", a[i].support >= 1,
                "live association has support");
      PFP_AUDIT("AssociationMiner", a[i].support <= row.occurrences,
                "support bounded by closed windows");
      PFP_AUDIT("AssociationMiner",
                a[i].min_gap >= 1 && a[i].min_gap <= config_.lookahead,
                "gap within the lookahead");
      PFP_AUDIT("AssociationMiner", a[i].block != row.source,
                "no self-association");
      PFP_AUDIT("AssociationMiner", i == 0 || a[i - 1].support >= a[i].support,
                "row sorted by descending support");
    }
    live_associations += row.size;
  }
  PFP_AUDIT("AssociationMiner", live_associations == associations_,
            "association counter matches live rows");
  for (const std::uint32_t slot : free_) {
    PFP_AUDIT("AssociationMiner", slot < rows_.size(),
              "free slot is allocated");
    PFP_AUDIT("AssociationMiner", !lru_.contains(slot),
              "free slot is unlinked");
  }
#endif
}

}  // namespace pfp::core::assoc
