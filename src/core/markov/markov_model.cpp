#include "core/markov/markov_model.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>

#include "util/assert.hpp"
#include "util/audit.hpp"
#include "util/binary_io.hpp"

namespace pfp::core::markov {

namespace {

constexpr std::array<char, 4> kMagic = {'P', 'F', 'M', 'K'};
constexpr std::uint16_t kStreamVersion = 1;
/// Smallest possible row record (an empty row); bounds a row count by
/// the bytes present.
constexpr std::size_t kRowHeaderBytes = 8 + 4;

[[noreturn]] void corrupt(const char* what) {
  throw std::runtime_error(std::string("delta-markov stream: ") + what);
}

}  // namespace

DeltaMarkov::DeltaMarkov(MarkovConfig config)
    : config_(config), lru_(config.max_contexts) {
  PFP_REQUIRE(config_.max_contexts >= 1);
  PFP_REQUIRE(config_.row_width >= 1);
  // max_count == 1 would re-decay a fresh count forever.
  PFP_REQUIRE(config_.max_count >= 2);
  index_.reserve(config_.max_contexts);
}

void DeltaMarkov::observe(trace::BlockId block) {
  if (!has_prev_block_) {
    prev_block_ = block;
    has_prev_block_ = true;
    return;
  }
  // Block ids are arbitrary u64s (a served tenant takes them off the
  // wire), so two may lie 2^63 or more apart: take the delta modulo
  // 2^64, where a signed subtraction would overflow.
  const auto delta = static_cast<std::int64_t>(block - prev_block_);
  if (has_prev_delta_) {
    record(prev_delta_, delta);
  }
  prev_delta_ = delta;
  has_prev_delta_ = true;
  prev_block_ = block;
  PFP_AUDIT_SWEEP(*this);
}

std::uint32_t DeltaMarkov::ensure_row(std::int64_t context) {
  const auto it = index_.find(context);
  if (it != index_.end()) {
    lru_.touch(it->second);
    return it->second;
  }
  std::uint32_t slot = 0;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else if (rows_.size() < config_.max_contexts) {
    slot = static_cast<std::uint32_t>(rows_.size());
    rows_.push_back(Row{});
    arena_.resize(rows_.size() * config_.row_width);
  } else {
    // Table full: recycle the least recently updated row.
    slot = lru_.pop_back();
    Row& victim = rows_[slot];
    index_.erase(victim.context);
    transitions_ -= victim.size;
  }
  rows_[slot] = Row{context, 0, 0};
  index_.emplace(context, slot);
  lru_.push_front(slot);
  return slot;
}

void DeltaMarkov::record(std::int64_t context, std::int64_t next_delta) {
  const std::uint32_t slot = ensure_row(context);
  Row& row = rows_[slot];
  Transition* t = row_slice(slot);

  std::uint32_t i = 0;
  while (i < row.size && t[i].delta != next_delta) {
    ++i;
  }
  if (i < row.size) {
    ++t[i].count;
    ++row.total;
    // Bubble toward the front to keep the descending-count order.
    while (i > 0 && t[i - 1].count < t[i].count) {
      std::swap(t[i - 1], t[i]);
      --i;
    }
    if (t[i].count >= config_.max_count) {
      decay_row(slot);
    }
  } else if (row.size < config_.row_width) {
    t[row.size] = Transition{next_delta, 1};
    ++row.size;
    ++row.total;
    ++transitions_;
  } else {
    // Full row: the weakest successor (last, by the sorted invariant)
    // makes room for the newcomer.
    row.total -= t[row.size - 1].count;
    t[row.size - 1] = Transition{next_delta, 1};
    ++row.total;
  }
}

void DeltaMarkov::decay_row(std::uint32_t slot) {
  Row& row = rows_[slot];
  Transition* t = row_slice(slot);
  std::uint32_t kept = 0;
  std::uint64_t total = 0;
  for (std::uint32_t i = 0; i < row.size; ++i) {
    const std::uint32_t halved = t[i].count / 2;
    if (halved == 0) {
      continue;  // stale successor fades out entirely
    }
    t[kept] = Transition{t[i].delta, halved};
    total += halved;
    ++kept;
  }
  transitions_ -= row.size - kept;
  row.size = kept;
  row.total = total;
}

std::size_t DeltaMarkov::predict_into(
    const costben::PredictLimits& limits,
    std::vector<costben::PredictedBlock>& out) const {
  if (!has_prev_delta_ || limits.max_candidates == 0) {
    return 0;
  }
  const auto it = index_.find(prev_delta_);
  if (it == index_.end()) {
    return 0;  // never seen this context: nothing to predict
  }
  next_generation();
  // Walk, dedup and cap in place in the appended region of `out`.
  const std::size_t first = out.size();
  walk_chains(it->second, limits, out);
  const std::span<costben::PredictedBlock> walked(out.data() + first,
                                                  out.size() - first);
  const std::size_t survivors = dedup_by_block(walked);
  const std::size_t kept = std::min(survivors, limits.max_candidates);
  if (kept < survivors) {
    // The top max_candidates under a strict total order are one set, so
    // any selection keeps exactly the candidates a full sort would.
    std::nth_element(walked.begin(),
                     walked.begin() + static_cast<std::ptrdiff_t>(kept),
                     walked.begin() + static_cast<std::ptrdiff_t>(survivors),
                     ranks_before);
  }
  out.resize(first + kept);
  return kept;
}

std::span<const DeltaMarkov::Transition> DeltaMarkov::successors(
    std::int64_t context) const {
  const auto it = index_.find(context);
  if (it == index_.end()) {
    return {};
  }
  return {row_slice(it->second), rows_[it->second].size};
}

void DeltaMarkov::next_generation() const {
  if (++generation_ == 0) {  // generation wrapped: purge stale stamps
    memo_.fill(StepMemo{});
    std::fill(seen_.begin(), seen_.end(), SeenSlot{});
    generation_ = 1;
  }
}

void DeltaMarkov::walk_chains(
    std::uint32_t slot, const costben::PredictLimits& limits,
    std::vector<costben::PredictedBlock>& out) const {
  const Row& row = rows_[slot];
  const Transition* t = row_slice(slot);
  for (std::uint32_t i = 0; i < row.size; ++i) {
    const double p1 =
        static_cast<double>(t[i].count) / static_cast<double>(row.total);
    if (p1 < limits.min_probability) {
      break;  // sorted descending: everything after is weaker
    }
    std::int64_t first = 0;
    if (__builtin_add_overflow(static_cast<std::int64_t>(prev_block_),
                               t[i].delta, &first) ||
        first < 0) {
      continue;  // delta walks off the address space
    }
    out.push_back(costben::PredictedBlock{
        static_cast<std::uint64_t>(first), p1, 1.0, 1});

    // Greedy chain: extend along each next context's most probable
    // successor, multiplying step probabilities (Eq. 1's path product).
    std::int64_t base = first;
    std::int64_t context = t[i].delta;
    double p_prev = p1;
    for (std::uint32_t depth = 2; depth <= limits.max_depth; ++depth) {
      const StepMemo& next = successor(context);
      if (!next.live) {
        break;
      }
      const double p = p_prev * next.step;
      if (p < limits.min_probability) {
        break;
      }
      if (__builtin_add_overflow(base, next.delta, &base) || base < 0) {
        break;
      }
      out.push_back(costben::PredictedBlock{
          static_cast<std::uint64_t>(base), p, p_prev, depth});
      p_prev = p;
      context = next.delta;
    }
  }
}

const DeltaMarkov::StepMemo& DeltaMarkov::successor(
    std::int64_t context) const {
  // Fibonacci hashing: deltas cluster near zero, the high product bits
  // spread them.  A colliding context just evicts the slot (a cache, not
  // a set), costing one extra index probe later.
  StepMemo& memo =
      memo_[(static_cast<std::uint64_t>(context) * 0x9e3779b97f4a7c15ULL) >>
            (64 - kMemoBits)];
  if (memo.generation == generation_ && memo.context == context) {
    return memo;
  }
  memo.generation = generation_;
  memo.context = context;
  memo.live = false;
  const auto it = index_.find(context);
  if (it != index_.end() && rows_[it->second].size != 0) {
    const Transition& best = row_slice(it->second)[0];
    memo.delta = best.delta;
    memo.step = static_cast<double>(best.count) /
                static_cast<double>(rows_[it->second].total);
    memo.live = true;
  }
  return memo;
}

std::size_t DeltaMarkov::dedup_by_block(
    std::span<costben::PredictedBlock> entries) const {
  // Every entry is inserted (the cap applies after dedup); keep load
  // <= 1/2 so probe chains stay short.  The table only grows, so a
  // steady-state call never reallocates it.
  std::size_t want = 16;
  while (want < entries.size() * 2) {
    want <<= 1;
  }
  if (seen_.size() < want) {
    seen_.assign(want, SeenSlot{});  // generation_ >= 1: all slots stale
  }
  const std::size_t mask = seen_.size() - 1;
  const int shift = 64 - std::countr_zero(seen_.size());

  std::size_t survivors = 0;
  for (const costben::PredictedBlock& c : entries) {
    std::size_t i = static_cast<std::size_t>(
        (c.block * 0x9e3779b97f4a7c15ULL) >> shift);
    while (true) {
      SeenSlot& slot = seen_[i];
      if (slot.generation != generation_) {
        slot = SeenSlot{c.block, generation_,
                        static_cast<std::uint32_t>(survivors)};
        entries[survivors++] = c;  // survivors <= current index: in place
        break;
      }
      if (slot.block == c.block) {
        // Chains can converge: keep the most probable route, then the
        // shallowest.
        costben::PredictedBlock& kept = entries[slot.index];
        if (c.probability > kept.probability ||
            (c.probability == kept.probability && c.depth < kept.depth)) {
          kept = c;
        }
        break;
      }
      i = (i + 1) & mask;
    }
  }
  return survivors;
}

std::size_t DeltaMarkov::actual_memory_bytes() const noexcept {
  return rows_.capacity() * sizeof(Row) +
         arena_.capacity() * sizeof(Transition) +
         index_.capacity() * (sizeof(std::pair<std::int64_t, std::uint32_t>) +
                              sizeof(std::uint8_t)) +
         lru_.capacity() * 2 * sizeof(std::uint32_t) +
         free_.capacity() * sizeof(std::uint32_t);
}

void DeltaMarkov::serialize(std::vector<std::uint8_t>& out) const {
  out.insert(out.end(), kMagic.begin(), kMagic.end());
  util::put_u16(out, kStreamVersion);
  util::put_u64(out, index_.size());
  // LRU-to-MRU so the reader's push_front replays the recency order.
  for (std::uint32_t slot = lru_.back(); slot != util::LruList::npos;
       slot = lru_.prev(slot)) {
    const Row& row = rows_[slot];
    util::put_i64(out, row.context);
    util::put_u32(out, row.size);
    const Transition* t = row_slice(slot);
    for (std::uint32_t i = 0; i < row.size; ++i) {
      util::put_i64(out, t[i].delta);
      util::put_u32(out, t[i].count);
    }
  }
}

DeltaMarkov DeltaMarkov::deserialize(util::ByteReader& in,
                                     MarkovConfig config) {
  if (!in.read_magic(kMagic)) {
    corrupt("bad magic");
  }
  if (in.read_u16() != kStreamVersion) {
    corrupt("unsupported version");
  }
  DeltaMarkov model(config);
  const std::uint64_t row_count = in.read_u64();
  if (!in.ok() || row_count > config.max_contexts) {
    corrupt("row count exceeds the configured context bound");
  }
  if (row_count > in.remaining() / kRowHeaderBytes) {
    corrupt("row count exceeds the bytes present");
  }
  for (std::uint64_t r = 0; r < row_count; ++r) {
    const std::int64_t context = in.read_i64();
    const std::uint32_t size = in.read_u32();
    if (!in.ok()) {
      corrupt("truncated row header");
    }
    if (size > config.row_width) {
      corrupt("row width exceeds the configured bound");
    }
    const std::uint32_t slot = model.ensure_row(context);
    if (model.rows_[slot].size != 0 || model.index_.size() != r + 1) {
      corrupt("duplicate context row");
    }
    Row& row = model.rows_[slot];
    Transition* t = model.row_slice(slot);
    for (std::uint32_t i = 0; i < size; ++i) {
      const std::int64_t delta = in.read_i64();
      const std::uint32_t count = in.read_u32();
      if (!in.ok()) {
        corrupt("truncated transition");
      }
      if (count == 0) {
        corrupt("zero transition count");
      }
      if (i > 0 && t[i - 1].count < count) {
        corrupt("transitions not in descending-count order");
      }
      t[i] = Transition{delta, count};
      row.total += count;
    }
    row.size = size;
    model.transitions_ += size;
  }
  PFP_AUDIT_SWEEP(model);
  return model;
}

void DeltaMarkov::audit() const {
#if PFP_AUDIT_ENABLED
  PFP_AUDIT("DeltaMarkov", rows_.size() <= config_.max_contexts,
            "row storage within the configured bound");
  PFP_AUDIT("DeltaMarkov", index_.size() == lru_.size(),
            "every indexed row is LRU-linked");
  PFP_AUDIT("DeltaMarkov", index_.size() + free_.size() == rows_.size(),
            "slots are either live or on the free list");
  std::size_t live_transitions = 0;
  for (const auto& [context, slot] : index_) {
    PFP_AUDIT("DeltaMarkov", slot < rows_.size(), "index points at a slot");
    PFP_AUDIT("DeltaMarkov", rows_[slot].context == context,
              "row context matches its index key");
    PFP_AUDIT("DeltaMarkov", lru_.contains(slot), "live row is LRU-linked");
    const Row& row = rows_[slot];
    PFP_AUDIT("DeltaMarkov", row.size <= config_.row_width,
              "row within the configured width");
    std::uint64_t total = 0;
    const Transition* t = row_slice(slot);
    for (std::uint32_t i = 0; i < row.size; ++i) {
      PFP_AUDIT("DeltaMarkov", t[i].count >= 1, "live transition has weight");
      PFP_AUDIT("DeltaMarkov", i == 0 || t[i - 1].count >= t[i].count,
                "row sorted by descending count");
      total += t[i].count;
    }
    PFP_AUDIT("DeltaMarkov", total == row.total,
              "row total equals the sum of its counts");
    live_transitions += row.size;
  }
  PFP_AUDIT("DeltaMarkov", live_transitions == transitions_,
            "transition counter matches live rows");
  for (const std::uint32_t slot : free_) {
    PFP_AUDIT("DeltaMarkov", slot < rows_.size(), "free slot is allocated");
    PFP_AUDIT("DeltaMarkov", !lru_.contains(slot), "free slot is unlinked");
  }
#endif
}

}  // namespace pfp::core::markov
