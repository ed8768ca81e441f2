// Prefetching policy interface.
//
// The simulator drives each trace reference through the buffer cache and
// then hands the observed outcome to the policy, which may issue
// prefetches and is responsible for choosing replacement victims — both
// when it wants room for a prefetch and when the simulator needs room for
// a demand fetch (Figure 2's reclaim arrows are policy decisions, not
// cache mechanics).
//
// Predictor state is generic: a policy that learns exposes its durable
// predictor through an opaque, versioned, self-describing byte stream
// (save/load) plus a family tag.  The engine's snapshot layer sees every
// predictor family — LZ tree, delta-Markov chain, association miner —
// through this one surface; no predictor type leaks into the interface.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/policy/context.hpp"
#include "util/binary_io.hpp"

namespace pfp::core::policy {

enum class AccessOutcome {
  kDemandHit,    ///< found in the demand cache
  kPrefetchHit,  ///< found in the prefetch cache (migrated on reference)
  kMiss,         ///< demand fetch required
};

/// Predictor-family tags ("FourCC" codes).  A policy with durable
/// predictor state reports exactly one of these; snapshot streams record
/// the tag so a blob can never be restored into the wrong family.
constexpr std::uint32_t fourcc(char a, char b, char c, char d) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(a)) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(b)) << 8) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(c)) << 16) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(d)) << 24);
}

/// Stateless policies (no durable predictor).
constexpr std::uint32_t kPredictorNone = 0;
/// The LZ prefetch tree family (core/tree).
constexpr std::uint32_t kPredictorTree = fourcc('L', 'Z', 'T', 'R');
/// Pangloss-style delta-Markov chain (core/markov).
constexpr std::uint32_t kPredictorMarkov = fourcc('M', 'R', 'K', 'V');
/// MITHRIL-style sporadic-association miner (core/assoc).
constexpr std::uint32_t kPredictorAssoc = fourcc('A', 'S', 'S', 'C');

/// Human-readable name for a predictor tag ("tree", "markov", "assoc",
/// "none", or "0x...." for unknown tags) — for error messages.
std::string predictor_tag_name(std::uint32_t tag);

class Prefetcher {
 public:
  virtual ~Prefetcher() = default;

  /// Stable identifier ("tree", "next-limit", ...).
  [[nodiscard]] virtual std::string name() const = 0;

  /// Called once per trace reference, after the cache state reflects the
  /// access (hit promoted / prefetch migrated / missed block admitted).
  /// This is where policies learn and issue prefetches.
  virtual void on_access(BlockId block, AccessOutcome outcome,
                         Context& ctx) = 0;

  /// Called on a demand miss with a full cache: evict exactly one buffer
  /// (from either cache) so the fetched block can be admitted.
  virtual void reclaim_for_demand(Context& ctx) = 0;

  /// Called when a prefetched block is referenced (before on_access).
  /// Default: records the hit with the h estimators.
  virtual void on_prefetch_consumed(const cache::PrefetchEntry& entry,
                                    Context& ctx);

  // --- generic predictor-state interface ---------------------------------

  /// Which predictor family this policy persists (kPredictorNone when the
  /// policy keeps no durable predictor state).  Engine snapshots record
  /// the tag next to the opaque blob.
  [[nodiscard]] virtual std::uint32_t predictor_state_tag() const;

  /// Appends the predictor state to `out` as an opaque, versioned image
  /// (each family writes its own magic + version header).  Only
  /// meaningful when predictor_state_tag() != kPredictorNone; the default
  /// implementation writes nothing.
  virtual void save_predictor_state(std::vector<std::uint8_t>& out) const;

  /// Reads one image written by save_predictor_state() of the same
  /// family from `in`; the caller checks that nothing trails it.  Throws
  /// std::runtime_error on malformed input; returns false when the policy
  /// keeps no predictor state to restore into.
  virtual bool load_predictor_state(util::ByteReader& in);
};

}  // namespace pfp::core::policy
