// Policy construction from a declarative spec.
//
// Benches and examples describe a run as data (kind + parameters); the
// factory turns that into a live Prefetcher.  Keeping the spec a value
// type lets the sweep driver fan specs out across threads.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/policy/assoc_policy.hpp"
#include "core/policy/markov_policy.hpp"
#include "core/policy/prefetcher.hpp"
#include "core/policy/prob_graph.hpp"
#include "core/policy/tree_adaptive.hpp"
#include "core/policy/tree_policy.hpp"

namespace pfp::core::policy {

enum class PolicyKind {
  kNoPrefetch,
  kNextLimit,
  kTree,
  kTreeNextLimit,
  kTreeLvc,
  kPerfectSelector,
  kTreeThreshold,
  kTreeChildren,
  kProbGraph,  ///< first-order probability graph (related-work baseline)
  kTreeAdaptive,  ///< tree + adaptive precision floor (paper future work)
  kMarkov,  ///< delta-Markov chain under the cost-benefit controller
  kAssoc,   ///< association miner under the cost-benefit controller
};

/// Every field is read by the kinds its comment names; the limits and the
/// controller settings are shared by every cost-benefit family (tree,
/// tree-next-limit, tree-lvc, tree-adaptive, markov, assoc).
struct PolicySpec {
  PolicyKind kind = PolicyKind::kNoPrefetch;
  tree::TreeConfig tree;           ///< LZ tree bounds (every tree kind)
  costben::PredictLimits limits;   ///< candidate cut-offs (cost-benefit)
  ControllerConfig controller;     ///< controller settings (cost-benefit)
  double obl_quota = 0.10;         ///< next-limit cache fraction
  double threshold = 0.05;         ///< tree-threshold parameter
  std::uint32_t children = 3;      ///< tree-children parameter
  ProbGraphConfig graph;           ///< prob-graph parameters
  AdaptiveConfig adaptive;         ///< tree-adaptive parameters
  markov::MarkovConfig markov;     ///< markov chain bounds
  assoc::AssocConfig assoc;        ///< association miner bounds
};

/// The four headline schemes of Section 9.1, in paper order.
const std::vector<PolicyKind>& headline_policies();

/// Every PolicyKind, in enum order — the source of truth for exhaustive
/// sweeps and for kind_from_name's reverse lookup.
const std::vector<PolicyKind>& all_policy_kinds();

/// Stable name for a kind ("tree-next-limit", ...); parametric kinds get
/// their parameter appended by the live policy's name() instead.
std::string kind_name(PolicyKind kind);

/// Inverse of kind_name; throws std::invalid_argument on junk.
PolicyKind kind_from_name(const std::string& name);

/// Engine-construction path: rejects parameter values no policy can run
/// with (quota/threshold outside [0, 1], zero children, NaNs) with a
/// std::invalid_argument naming the field.  engine::validate() calls this
/// before any policy is built, so misconfiguration fails loudly at
/// construction instead of as UB mid-run.
void validate_spec(const PolicySpec& spec);

std::unique_ptr<Prefetcher> make_prefetcher(const PolicySpec& spec);

}  // namespace pfp::core::policy
