// The module pass: one linear walk down from the top gate that splits a
// fault tree into a closed-form part and *frontier* modules — the
// classical modularisation (Kromodimoeljo & Lindsay) that ladders and
// votes of votes need, where monolithic core-guided search fragments: a
// *module* (analysis/modules) is analysed on its own, recombined exactly.
//
// plan_strata walks down from the top. A module gate whose children are
// all basic events or modules, with no child repeated under a vote, is
// *closed-form*: its children's event supports are pairwise disjoint, so
// its minimal cut sets are exactly the combinations of its children's,
// and its optimum follows from theirs:
//
//   * OR     — the cheapest child's optimum;
//   * AND    — the union of every child's optimum (the costs add);
//   * k-of-n — the union of the k cheapest children's optima: all
//     probabilities are <= 1, so a larger or costlier selection only
//     multiplies in further factors <= the chosen ones.
//
// Every other module the walk reaches is a frontier module: its kernel
// needs search, so it keeps the paper's monolithic Steps 1-6 on a
// prepared artefact of its own. When the top gate itself is a frontier
// module the plan does not apply and the tree's own artefact serves.
//
// compose() evaluates the closed-form gates children first, without
// recursion, over k-best lists: OR merges its children's lists, AND takes
// k-best sums, k-of-n runs a DP over its children; k = 1 is the optimum.
// Costs are ScaledCutCost, Step 3's per-event rounding, so a composed
// optimum equals the monolithic scaled optimum. tests/property_sweep_test
// holds optima and top-k cost sequences equal to the monolithic members,
// BDD and brute force.
//
// The frontier artefacts (instances, Step 3.5, incremental sessions) are
// owned by core::PreparedInstance; this header knows the plan's shape and
// the cost arithmetic.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "analysis/modules.hpp"
#include "ft/cut_set.hpp"
#include "ft/fault_tree.hpp"
#include "maxsat/solver.hpp"
#include "util/cancel.hpp"

namespace fta::core {
struct PreparedInstance;
}  // namespace fta::core

namespace fta::maxsat {

/// A frontier module below a closed-form gate: the extracted subtree
/// (shared by the plan copies an edit leaves it alone in) and, once
/// core::MpmcsPipeline::prepare ran, its monolithic artefact.
struct StratifiedStratum {
  ft::NodeIndex gate = ft::kNoIndex;  ///< The module's gate in the tree.
  std::shared_ptr<const analysis::ExtractedModule> module;
  std::shared_ptr<const core::PreparedInstance> prepared;
};

struct StratifiedPlan {
  /// The top gate is closed-form. When false the rest is empty: the top
  /// is a frontier module (or a basic event) and the whole tree is solved
  /// as one instance.
  bool applicable = false;
  /// The closed-form gates, children before parents; the top gate last.
  std::vector<ft::NodeIndex> closed;
  /// The frontier modules below them, in walk order.
  std::vector<StratifiedStratum> strata;
};

/// The module pass over `tree` (validated): linear in its size, with no
/// recursion. Frontier modules come back extracted, with empty
/// `prepared` slots — preparation is the pipeline's job.
StratifiedPlan plan_strata(const ft::FaultTree& tree);

/// Scaled-integer cost of a cut under the pipeline's Step 3 weighting,
/// recomputed with the identical per-event rounding
/// (llround(-log p * weight_scale)). p == 0 members are tallied apart:
/// the monolithic instance charges them a per-instance "forbidden"
/// weight strictly above every ordinary combination, so ordering by
/// (impossible, ordinary) reproduces the monolithic preference without
/// needing that instance-specific constant.
struct ScaledCutCost {
  Weight ordinary = 0;
  std::uint32_t impossible = 0;

  friend bool operator<(const ScaledCutCost& a,
                        const ScaledCutCost& b) noexcept {
    if (a.impossible != b.impossible) return a.impossible < b.impossible;
    return a.ordinary < b.ordinary;
  }
  friend ScaledCutCost operator+(const ScaledCutCost& a,
                                 const ScaledCutCost& b) noexcept {
    return {a.ordinary + b.ordinary, a.impossible + b.impossible};
  }
};

ScaledCutCost scaled_cut_cost(const ft::FaultTree& tree,
                              std::span<const ft::EventIndex> events,
                              double weight_scale);

/// What one frontier module contributes to a composition: its cheapest
/// cuts (original event indices) with their costs, cheapest first.
struct FrontierList {
  std::vector<ft::CutSet> cuts;
  std::vector<ScaledCutCost> costs;  ///< Parallel to `cuts`.
  /// `cuts` are the module's true cheapest (all of them, when fewer than
  /// asked for). Otherwise they are feasible cuts the search found.
  bool exact = false;
  /// Certified lower bound on the module's optimum.
  ScaledCutCost lower;
};

/// The k cheapest minimal cut sets of the tree, cheapest first, composed
/// over the plan's closed-form gates from the frontier lists (indexed like
/// plan.strata).
struct Composition {
  /// `cuts` are the tree's true k cheapest (all of them, when fewer): false
  /// when a frontier list was inexact or `cancel` fired.
  bool exact = false;
  std::vector<ft::CutSet> cuts;
  std::vector<ScaledCutCost> costs;  ///< Parallel to `cuts`.
  /// Certified lower bound on the tree's optimum (its cost when exact).
  ScaledCutCost lower;
};

/// Evaluates the closed-form gates children first in one iterative pass,
/// polling `cancel` and ticking its liveness counter as it goes.
Composition compose(const ft::FaultTree& tree, const StratifiedPlan& plan,
                    std::span<const FrontierList> frontier, std::size_t k,
                    double weight_scale, const util::CancelTokenPtr& cancel);

}  // namespace fta::maxsat
