#include "trace/trace.hpp"

#include <unordered_set>

namespace pfp::trace {

std::vector<BlockId> Trace::blocks() const {
  std::vector<BlockId> out;
  out.reserve(records_.size());
  for (const auto& r : records_) {
    out.push_back(r.block);
  }
  return out;
}

std::size_t Trace::unique_blocks() const {
  std::unordered_set<BlockId> seen;
  seen.reserve(records_.size() / 4 + 16);
  for (const auto& r : records_) {
    seen.insert(r.block);
  }
  return seen.size();
}

void Trace::truncate(std::size_t n) {
  if (n < records_.size()) {
    records_.resize(n);
  }
}

}  // namespace pfp::trace
