#include "core/policy/prefetcher.hpp"

#include <cctype>
#include <cstdio>

namespace pfp::core::policy {

std::string predictor_tag_name(std::uint32_t tag) {
  switch (tag) {
    case kPredictorNone:
      return "none";
    case kPredictorTree:
      return "tree";
    case kPredictorMarkov:
      return "markov";
    case kPredictorAssoc:
      return "assoc";
    default:
      break;
  }
  char buf[16];
  std::snprintf(buf, sizeof buf, "0x%08x", tag);
  return buf;
}

void Prefetcher::on_prefetch_consumed(const cache::PrefetchEntry& entry,
                                      Context& ctx) {
  ctx.estimators.prefetch_outcome(/*accessed=*/true, entry.obl);
}

std::uint32_t Prefetcher::predictor_state_tag() const {
  return kPredictorNone;
}

void Prefetcher::save_predictor_state(
    std::vector<std::uint8_t>& /*out*/) const {}

bool Prefetcher::load_predictor_state(util::ByteReader& /*in*/) {
  return false;
}

}  // namespace pfp::core::policy
