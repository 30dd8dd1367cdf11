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
// Every other module the walk reaches is a frontier module, and so is the
// top gate when it is not closed-form. A frontier module needs search,
// but only over its *kernel*: its gates minus every maximal sub-module
// whose gates are all closed-form. Each such sub-module becomes one
// placeholder event of the kernel, weighted by the sub-module's composed
// optimum; nested frontier modules stay inlined. A kernel is a fault tree
// of its own, and keeps the paper's monolithic Steps 1-6 on a prepared
// artefact of its own. Modularity makes this exact: every minimal cut set
// of the module is one minimal cut set of the kernel with each placeholder
// in it replaced by one minimal cut set of its sub-module, so the
// kernel's optimum under placeholder weights is the module's optimum, and
// its k cheapest cuts expand into the module's k cheapest. When the top
// is a frontier module with nothing to collapse, the plan does not apply
// and the tree's own artefact serves.
//
// Composer evaluates closed-form gates children first, without
// recursion, over k-best lists: OR merges its children's lists, AND takes
// k-best sums, k-of-n runs a DP over its children (at k = 1, the optimum,
// it takes its k cheapest children). Costs are ScaledCutCost, Step 3's
// per-event rounding, so a composed optimum equals the monolithic scaled
// optimum. tests/property_sweep_test and tests/module_pass_test hold
// optima and top-k cost sequences equal to the monolithic members, BDD
// and brute force.
//
// The frontier artefacts (instances, Step 3.5, incremental sessions) are
// owned by core::PreparedInstance; this header knows the plan's shape and
// the cost arithmetic.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "ft/cut_set.hpp"
#include "ft/fault_tree.hpp"
#include "maxsat/solver.hpp"
#include "util/cancel.hpp"

namespace fta::core {
struct PreparedInstance;
}  // namespace fta::core

namespace fta::maxsat {

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
  friend bool operator==(const ScaledCutCost&,
                         const ScaledCutCost&) noexcept = default;
  friend ScaledCutCost operator+(const ScaledCutCost& a,
                                 const ScaledCutCost& b) noexcept {
    return {a.ordinary + b.ordinary, a.impossible + b.impossible};
  }
};

/// Step 3's cost of one event: {llround(-log p * weight_scale), 0}, or
/// {0, 1} for p == 0.
ScaledCutCost event_cost(const ft::FaultTree& tree, ft::EventIndex e,
                         double weight_scale);

ScaledCutCost scaled_cut_cost(const ft::FaultTree& tree,
                              std::span<const ft::EventIndex> events,
                              double weight_scale);

/// A frontier module's kernel, extracted as a fault tree: the module's
/// gates down to its events and its collapsed sub-modules, each of which
/// is one placeholder event.
struct Kernel {
  ft::FaultTree tree;
  /// Kernel event -> the node it stands for in the original tree: a basic
  /// event, or a collapsed sub-module's gate.
  std::vector<ft::NodeIndex> source;
  /// Kernel event -> its Step 3 cost: the event's own, or the sub-module's
  /// composed optimum. Never a probability: a sub-module's -ln P passes
  /// the ~745 at which exp(-W/scale) underflows. (A placeholder's
  /// probability in `tree` is exp(-W/scale), or 0 when the optimum has a
  /// p == 0 member; only the minimality shrink's order reads it.)
  std::vector<ScaledCutCost> cost;
  /// Kernel event -> the composed optimum's cut of a placeholder's
  /// sub-module (original event indices); empty for an event.
  std::vector<ft::CutSet> cut;
};

/// A frontier module: its gate in the tree, its kernel (shared by the plan
/// copies an edit leaves it alone in) and, once
/// core::MpmcsPipeline::prepare ran, the kernel's monolithic artefact.
struct StratifiedStratum {
  ft::NodeIndex gate = ft::kNoIndex;  ///< The module's gate in the tree.
  std::shared_ptr<const Kernel> kernel;
  std::shared_ptr<const core::PreparedInstance> prepared;
};

struct StratifiedPlan {
  /// The plan applies: the top gate is closed-form, or it is a frontier
  /// module whose kernel collapses at least one sub-module. When false the
  /// rest is empty and the whole tree is solved as one instance.
  bool applicable = false;
  /// The closed-form gates above the frontier, children before parents;
  /// the top gate last. Empty when the top is a frontier module.
  std::vector<ft::NodeIndex> closed;
  /// The frontier modules below them (or the top), in walk order.
  std::vector<StratifiedStratum> strata;
  /// The gates of every collapsed sub-module, children before parents.
  std::vector<ft::NodeIndex> collapsed;
};

/// The module pass over `tree` (validated): linear in its size, with no
/// recursion. Kernels come back extracted and priced under
/// `weight_scale`, with empty `prepared` slots — preparation is the
/// pipeline's job.
StratifiedPlan plan_strata(const ft::FaultTree& tree,
                           double weight_scale = 1e6);

/// Re-prices the kernels of `plan` (made for a tree of `tree`'s shape)
/// under `tree`'s probabilities: a kernel whose events or placeholder
/// optima moved is replaced by a repriced copy; the others stay shared.
void reprice_kernels(const ft::FaultTree& tree, StratifiedPlan& plan,
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

/// The k cheapest minimal cut sets of a gate, cheapest first.
struct Composition {
  /// `cuts` are the gate's true k cheapest (all of them, when fewer):
  /// false when a frontier list was inexact or `cancel` fired.
  bool exact = false;
  std::vector<ft::CutSet> cuts;
  std::vector<ScaledCutCost> costs;  ///< Parallel to `cuts`.
  /// Certified lower bound on the gate's optimum (its cost when exact).
  ScaledCutCost lower;
};

/// k-best lists of closed-form gates, evaluated children first in one
/// iterative pass. A gate's child is a basic event, a gate evaluated
/// before it, or a frontier module of `plan` whose list is in `frontier`
/// (indexed like plan.strata; empty when no evaluated gate has one).
class Composer {
 public:
  Composer(const ft::FaultTree& tree, const StratifiedPlan& plan,
           std::span<const FrontierList> frontier, std::size_t k,
           double weight_scale);

  /// Evaluates `gates`, children first, polling `cancel` and ticking its
  /// liveness counter as it goes. False when it fired.
  bool evaluate(std::span<const ft::NodeIndex> gates,
                const util::CancelTokenPtr& cancel);

  /// An evaluated gate's list: its length, entry costs and entry cuts.
  std::size_t size(ft::NodeIndex gate) const { return size_[slot_[gate]]; }
  ScaledCutCost cost(ft::NodeIndex gate, std::size_t entry) const {
    return entries_[begin_[slot_[gate]] + entry].cost;
  }
  /// Appends the events of entry `entry`'s cut to `events` (unsorted).
  void append_cut(ft::NodeIndex gate, std::size_t entry,
                  std::vector<ft::EventIndex>& events) const;
  Composition result(ft::NodeIndex gate) const;

 private:
  /// One entry of a node's k-best list. Its cut is the union, over the
  /// chain of parts starting at `part`, of each part's child's entry.
  struct Entry {
    ScaledCutCost cost;
    std::uint32_t part = UINT32_MAX;
  };
  struct Part {
    ft::NodeIndex child = ft::kNoIndex;
    std::uint32_t entry = 0;           ///< Index into the child's list.
    std::uint32_t prev = UINT32_MAX;  ///< Next part of the same entry.
  };
  /// A closed-form gate's child as the composition sees it.
  struct ChildList {
    ft::NodeIndex node = ft::kNoIndex;
    std::span<const Entry> list;
    bool exact = true;
    ScaledCutCost lower;

    /// The child may fire: it has a cut, or its search is undecided.
    bool live() const noexcept { return !list.empty() || !exact; }
  };

  void evaluate(ft::NodeIndex gate);
  void store(ft::NodeIndex node, std::span<const Entry> list, bool exact,
             ScaledCutCost lower);
  std::vector<Entry> extend(const std::vector<Entry>& base,
                            const ChildList& child,
                            const std::vector<Entry>& kept = {});
  std::vector<Entry> choose(std::uint32_t threshold);
  Entry cheapest(std::uint32_t threshold);

  const ft::FaultTree& tree_;
  std::span<const FrontierList> frontier_;
  std::size_t k_;
  double weight_scale_;
  std::vector<std::uint32_t> slot_;  ///< Node -> evaluated gate/frontier.
  std::vector<std::uint32_t> frontier_of_;   ///< Per slot; UINT32_MAX: gate.
  std::vector<std::uint32_t> begin_, size_;  ///< Per slot, into entries_.
  std::vector<std::uint8_t> exact_;
  std::vector<ScaledCutCost> lower_;
  std::vector<Entry> entries_;
  std::vector<Part> parts_;
  /// The gate that last listed a node as its child: skips repeats.
  std::vector<ft::NodeIndex> last_parent_;
  std::vector<ChildList> children_;  ///< Scratch for evaluate().
  std::vector<Entry> singles_;       ///< Scratch: event children's lists.
  std::vector<ScaledCutCost> lowers_;  ///< Scratch for evaluate().
  std::vector<std::uint32_t> picks_;   ///< Scratch for cheapest().
};

/// The k cheapest minimal cut sets of the tree, composed over the plan's
/// closed-form gates from the frontier lists (indexed like plan.strata).
Composition compose(const ft::FaultTree& tree, const StratifiedPlan& plan,
                    std::span<const FrontierList> frontier, std::size_t k,
                    double weight_scale, const util::CancelTokenPtr& cancel);

/// The cheapest cut of the tree that the kernel cut `cut` (kernel events)
/// stands for: its events joined with each placeholder's optimum cut.
FrontierList expand(const ft::FaultTree& tree, const Kernel& kernel,
                    const ft::CutSet& cut);

/// The k cheapest cuts of the tree that the kernel cut `cut` stands for,
/// cheapest first: its events joined with one cut of each placeholder's
/// sub-module, from `parts`, a Composer that evaluated the plan's
/// collapsed gates with at least k entries per list.
FrontierList expand(const ft::FaultTree& tree, const Kernel& kernel,
                    const ft::CutSet& cut, const Composer& parts,
                    std::size_t k);

}  // namespace fta::maxsat
