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
// The optimum of every closed-form gate whose children's optima are known
// without search is kept in the plan's head table (HeadTable), one k = 1
// *head* per gate: its cost and the children it picks. One evaluator,
// cheapest(), computes a gate's head from its children's heads in
// O(fan-in), and breaks ties by cost, then child position. Under a module
// every node has exactly one parent gate (a node below a module is reached
// only through it), so the table's gates form a forest: a weight edit
// recomputes the head above each edited event and climbs only while the
// head's cost moves (reprice). The table therefore always equals a cold
// composition of the edited tree. The closed-form gates above a frontier
// module (the *spine*) depend on the kernels' answers and are composed
// per solve (compose_head).
//
// Composer evaluates closed-form gates children first, without
// recursion, over k-best lists for top-k: OR merges its children's lists,
// AND takes k-best sums, k-of-n runs a DP over its children (at k = 1 it
// takes cheapest()'s head). Costs are ScaledCutCost, Step 3's per-event
// rounding, so a composed optimum equals the monolithic scaled optimum.
// tests/property_sweep_test and tests/module_pass_test hold optima and
// top-k cost sequences equal to the monolithic members, BDD and brute
// force.
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
  /// event, or a collapsed sub-module's gate (whose optimum's cut the
  /// plan's head table holds).
  std::vector<ft::NodeIndex> source;
  /// Kernel event -> its Step 3 cost: the event's own, or the sub-module's
  /// composed optimum. Never a probability: a sub-module's -ln P passes
  /// the ~745 at which exp(-W/scale) underflows. (A placeholder's
  /// probability in `tree` is exp(-W/scale), or 0 when the optimum has a
  /// p == 0 member; only the minimality shrink's order reads it.)
  std::vector<ScaledCutCost> cost;
};

/// A frontier module: its gate in the tree, its kernel and, once
/// core::MpmcsPipeline::prepare ran, the kernel's monolithic artefact.
struct StratifiedStratum {
  ft::NodeIndex gate = ft::kNoIndex;  ///< The module's gate in the tree.
  std::shared_ptr<const Kernel> kernel;
  std::shared_ptr<const core::PreparedInstance> prepared;
};

/// A k = 1 head: the optimum of a node as a composition sees it.
struct Head {
  ScaledCutCost cost;   ///< The cheapest known cut's cost (when `cut`).
  ScaledCutCost lower;  ///< Certified lower bound on the optimum.
  bool cut = true;      ///< A cut is known.
  /// `cost` is the optimum, or no cut exists. False only above a frontier
  /// module whose search stopped undecided.
  bool exact = true;
};

/// The one k = 1 evaluator: the head of a closed-form gate of `type`
/// (threshold `k` when a vote) from the heads of its distinct children,
/// `kids`, in child order. It takes the cheapest children that have a cut
/// (one for OR, all for AND, k for a vote), by cost and then position, and
/// leaves their positions in `picks`. No cut, and exact, when too few
/// children may fire; no cut, inexact, when an undecided child lacks one.
Head cheapest(ft::NodeType type, std::uint32_t k, std::span<const Head> kids,
              std::vector<std::uint32_t>& picks);

/// What a node is to the head table.
enum class HeadRole : std::uint8_t {
  None,      ///< An event, a kernel's own gate, or a node off the top's DAG.
  Gate,      ///< A closed-form gate with its head in the table.
  Spine,     ///< A closed-form gate above a frontier module.
  Frontier,  ///< A frontier module's gate.
};

/// The plan's k = 1 composition, kept per node of the tree.
struct HeadTable {
  /// Node -> where its head is read. `kernel_event == kNoIndex`: by gate
  /// `index` (a Gate or Spine node; kNoIndex when none). Otherwise the
  /// node is a leaf of stratum `index`'s kernel, as event `kernel_event`:
  /// a basic event of the kernel, or a collapsed sub-module's root.
  struct Up {
    std::uint32_t index = ft::kNoIndex;
    std::uint32_t kernel_event = ft::kNoIndex;
    friend bool operator==(const Up&, const Up&) noexcept = default;
  };
  /// Node -> its head's cost: a basic event's Step 3 cost, or a Gate's
  /// composed optimum.
  std::vector<ScaledCutCost> cost;
  std::vector<Up> up;
  std::vector<HeadRole> role;
  /// Node -> an OR or vote Gate's first pick in `picks` (it has 1 or k;
  /// an AND picks all its children), a Spine gate's position in the
  /// plan's spine, a Frontier gate's stratum; kNoIndex otherwise.
  std::vector<std::uint32_t> slot;
  /// Node -> an AND gate lists a child twice (it counts once).
  std::vector<bool> repeats;
  std::vector<ft::NodeIndex> picks;

  friend bool operator==(const HeadTable&, const HeadTable&) = default;
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
  /// The closed gates above a frontier module, children before parents
  /// (the top last): composed per solve. Empty when the top is a Gate (a
  /// pure tree) or a frontier module.
  std::vector<ft::NodeIndex> spine;
  /// The heads of the other closed gates and of the collapsed ones.
  HeadTable heads;
};

/// The module pass over `tree` (validated): linear in its size, with no
/// recursion. Kernels come back extracted, their costs set under
/// `weight_scale`, with empty `prepared` slots — preparation is the
/// pipeline's job.
StratifiedPlan plan_strata(const ft::FaultTree& tree,
                           double weight_scale = 1e6);

/// Brings `plan` (made for `tree`'s shape, under `weight_scale`) up to
/// date in place after the probabilities of `events` changed: each
/// event's head, then the Gates above it while their head's cost moves. A
/// kernel leaf on the way (the event itself, or a collapsed sub-module's
/// root) takes its new cost and probability in its kernel, and `moved[j]`
/// is set when stratum j's costs moved. Returns how many Gates it
/// recomposed.
std::size_t reprice(const ft::FaultTree& tree, StratifiedPlan& plan,
                    std::span<const ft::EventIndex> events,
                    double weight_scale, std::vector<bool>& moved);

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
  };

  void evaluate(ft::NodeIndex gate);
  void store(ft::NodeIndex node, std::span<const Entry> list, bool exact,
             ScaledCutCost lower);
  std::vector<Entry> extend(const std::vector<Entry>& base,
                            const ChildList& child,
                            const std::vector<Entry>& kept = {});
  std::vector<Entry> choose(std::uint32_t threshold);

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
  std::vector<Head> heads_;            ///< Scratch: children_'s heads.
  std::vector<std::uint32_t> picks_;   ///< Scratch for cheapest().
};

/// The k cheapest minimal cut sets of the tree, composed over the plan's
/// closed-form gates from the frontier lists (indexed like plan.strata).
Composition compose(const ft::FaultTree& tree, const StratifiedPlan& plan,
                    std::span<const FrontierList> frontier, std::size_t k,
                    double weight_scale, const util::CancelTokenPtr& cancel);

/// A frontier module's k = 1 answer: its head and, when the head has a
/// cut, the kernel cut (kernel events) it stands for.
struct FrontierHead {
  Head head;
  ft::CutSet kernel_cut;
};

/// The tree's cheapest cut: the top's head (the spine composed from the
/// table and `frontier`, indexed like plan.strata), its picks followed
/// down to the events. At most one cut.
Composition compose_head(const ft::FaultTree& tree, const StratifiedPlan& plan,
                         std::span<const FrontierHead> frontier);

/// The k cheapest cuts of the tree that the kernel cut `cut` stands for,
/// cheapest first: its events joined with one cut of each placeholder's
/// sub-module, from `parts`, a Composer that evaluated the plan's
/// collapsed gates with at least k entries per list.
FrontierList expand(const ft::FaultTree& tree, const Kernel& kernel,
                    const ft::CutSet& cut, const Composer& parts,
                    std::size_t k);

}  // namespace fta::maxsat
