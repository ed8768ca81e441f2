#include "core/policy/factory.hpp"

#include <stdexcept>

#include "core/policy/next_limit.hpp"
#include "core/policy/no_prefetch.hpp"
#include "core/policy/perfect_selector.hpp"
#include "core/policy/tree_children.hpp"
#include "core/policy/tree_lvc.hpp"
#include "core/policy/tree_next_limit.hpp"
#include "core/policy/tree_threshold.hpp"

namespace pfp::core::policy {

const std::vector<PolicyKind>& headline_policies() {
  static const std::vector<PolicyKind> kAll = {
      PolicyKind::kNoPrefetch, PolicyKind::kNextLimit, PolicyKind::kTree,
      PolicyKind::kTreeNextLimit};
  return kAll;
}

const std::vector<PolicyKind>& all_policy_kinds() {
  static const std::vector<PolicyKind> kAll = {
      PolicyKind::kNoPrefetch,      PolicyKind::kNextLimit,
      PolicyKind::kTree,            PolicyKind::kTreeNextLimit,
      PolicyKind::kTreeLvc,         PolicyKind::kPerfectSelector,
      PolicyKind::kTreeThreshold,   PolicyKind::kTreeChildren,
      PolicyKind::kProbGraph,       PolicyKind::kTreeAdaptive,
      PolicyKind::kMarkov,          PolicyKind::kAssoc,
  };
  return kAll;
}

std::string kind_name(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kNoPrefetch:
      return "no-prefetch";
    case PolicyKind::kNextLimit:
      return "next-limit";
    case PolicyKind::kTree:
      return "tree";
    case PolicyKind::kTreeNextLimit:
      return "tree-next-limit";
    case PolicyKind::kTreeLvc:
      return "tree-lvc";
    case PolicyKind::kPerfectSelector:
      return "perfect-selector";
    case PolicyKind::kTreeThreshold:
      return "tree-threshold";
    case PolicyKind::kTreeChildren:
      return "tree-children";
    case PolicyKind::kProbGraph:
      return "prob-graph";
    case PolicyKind::kTreeAdaptive:
      return "tree-adaptive";
    case PolicyKind::kMarkov:
      return "markov";
    case PolicyKind::kAssoc:
      return "assoc";
  }
  return "?";
}

PolicyKind kind_from_name(const std::string& name) {
  for (const PolicyKind kind : all_policy_kinds()) {
    if (kind_name(kind) == name) {
      return kind;
    }
  }
  throw std::invalid_argument("unknown policy '" + name + "'");
}

namespace {

// !(value in range) instead of direct comparison so NaN is rejected too.
void require_fraction(double value, const char* field) {
  if (!(value >= 0.0 && value <= 1.0)) {
    throw std::invalid_argument(std::string("PolicySpec: ") + field +
                                " must be in [0, 1] (got " +
                                std::to_string(value) + ")");
  }
}

}  // namespace

void validate_spec(const PolicySpec& spec) {
  require_fraction(spec.obl_quota, "obl_quota");
  require_fraction(spec.threshold, "threshold");
  require_fraction(spec.graph.min_probability, "graph.min_probability");
  if (spec.children == 0) {
    throw std::invalid_argument(
        "PolicySpec: children must be at least 1");
  }
  if (spec.controller.max_prefetches_per_period == 0) {
    throw std::invalid_argument(
        "PolicySpec: controller.max_prefetches_per_period must be at least "
        "1");
  }
  require_fraction(spec.limits.min_probability, "limits.min_probability");
  if (spec.markov.max_contexts == 0 || spec.markov.row_width == 0) {
    throw std::invalid_argument(
        "PolicySpec: markov bounds must be at least 1");
  }
  if (spec.markov.max_count < 2) {
    throw std::invalid_argument(
        "PolicySpec: markov.max_count must be at least 2");
  }
  if (spec.assoc.lookahead == 0 ||
      spec.assoc.window <= spec.assoc.lookahead) {
    throw std::invalid_argument(
        "PolicySpec: assoc.window must exceed assoc.lookahead (both at "
        "least 1)");
  }
  if (spec.assoc.row_width == 0 || spec.assoc.max_rows == 0) {
    throw std::invalid_argument(
        "PolicySpec: assoc bounds must be at least 1");
  }
  if (spec.assoc.age_threshold < 2) {
    throw std::invalid_argument(
        "PolicySpec: assoc.age_threshold must be at least 2");
  }
}

// Construction happens once per simulation, never per access, so the
// hot-path allocation ban does not apply here.  lint: allow-file(hot-alloc)
std::unique_ptr<Prefetcher> make_prefetcher(const PolicySpec& spec) {
  switch (spec.kind) {
    case PolicyKind::kNoPrefetch:
      return std::make_unique<NoPrefetch>();
    case PolicyKind::kNextLimit:
      return std::make_unique<NextLimit>(spec.obl_quota);
    case PolicyKind::kTree:
      return std::make_unique<TreeCostBenefit>(spec.tree, spec.limits,
                                               spec.controller);
    case PolicyKind::kTreeNextLimit:
      return std::make_unique<TreeNextLimit>(spec.tree, spec.limits,
                                             spec.controller, spec.obl_quota);
    case PolicyKind::kTreeLvc:
      return std::make_unique<TreeLvc>(spec.tree, spec.limits,
                                       spec.controller);
    case PolicyKind::kPerfectSelector:
      return std::make_unique<PerfectSelector>(spec.tree);
    case PolicyKind::kTreeThreshold:
      return std::make_unique<TreeThreshold>(spec.threshold, spec.tree);
    case PolicyKind::kTreeChildren:
      return std::make_unique<TreeChildren>(spec.children, spec.tree);
    case PolicyKind::kProbGraph:
      return std::make_unique<ProbGraph>(spec.graph);
    case PolicyKind::kTreeAdaptive:
      return std::make_unique<TreeAdaptive>(spec.tree, spec.limits,
                                            spec.controller, spec.adaptive);
    case PolicyKind::kMarkov:
      return std::make_unique<MarkovCostBenefit>(spec.markov, spec.limits,
                                                 spec.controller);
    case PolicyKind::kAssoc:
      return std::make_unique<AssocCostBenefit>(spec.assoc, spec.limits,
                                                spec.controller);
  }
  throw std::invalid_argument("unknown policy kind");
}

}  // namespace pfp::core::policy
