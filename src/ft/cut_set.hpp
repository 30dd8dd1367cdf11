// Cut sets: sets of basic events that together trigger the top event.
//
// A CutSet is a sorted, duplicate-free vector of EventIndex. A minimal cut
// set (MCS) is a cut set no proper subset of which is itself a cut set.
// The MPMCS is the MCS maximising the joint occurrence probability
// (independence assumed, as in the paper).
#pragma once

#include <string>
#include <vector>

#include "ft/fault_tree.hpp"
#include "logic/formula.hpp"

namespace fta::ft {

class CutSet {
 public:
  CutSet() = default;
  /// Normalises: sorts and deduplicates.
  explicit CutSet(std::vector<EventIndex> events);

  const std::vector<EventIndex>& events() const noexcept { return events_; }
  std::size_t size() const noexcept { return events_.size(); }
  bool empty() const noexcept { return events_.empty(); }
  bool contains(EventIndex e) const noexcept;

  /// True iff every event of this set is in `other`.
  bool subset_of(const CutSet& other) const noexcept;

  /// Joint probability Prod_i p(x_i) under event independence.
  double probability(const FaultTree& tree) const;

  /// Sum of -log p(x_i); the paper's log-space cost (Step 3/6).
  /// Events with p == 0 contribute +infinity.
  double log_cost(const FaultTree& tree) const;

  /// "{x1, x2}" using event names from the tree.
  std::string to_string(const FaultTree& tree) const;

  /// The events' names in the tree, in event order.
  std::vector<std::string> names(const FaultTree& tree) const;

  friend bool operator==(const CutSet& a, const CutSet& b) noexcept {
    return a.events_ == b.events_;
  }
  friend auto operator<=>(const CutSet& a, const CutSet& b) noexcept {
    return a.events_ <=> b.events_;
  }

 private:
  std::vector<EventIndex> events_;
};

/// True iff setting exactly the events of `cs` makes the top event occur.
bool is_cut_set(const FaultTree& tree, const CutSet& cs);

/// True iff `cs` is a cut set and removing any single element breaks it.
/// (For monotone trees this characterises minimality.)
bool is_minimal_cut_set(const FaultTree& tree, const CutSet& cs);

/// Greedily removes redundant events until the set is minimal; requires
/// that `cs` is a cut set. Deterministic: drops the removable event with
/// the smallest probability first (this can only increase the joint
/// probability of the remaining set).
CutSet shrink_to_minimal(const FaultTree& tree, CutSet cs);

/// Reusable minimality-shrink context: the tree formula is built once and
/// candidate drops are evaluated through logic::IncrementalEvaluator, so
/// per-request shrinking costs a linear evaluator setup plus a few count
/// updates per member instead of a formula rebuild and a full DAG
/// re-evaluation per member (ROADMAP "shrink_to_minimal cost"). A context
/// serves any structurally identical tree (the pipeline caches one per
/// PreparedInstance); shrink() is const and safe to call concurrently.
class ShrinkContext {
 public:
  explicit ShrinkContext(const FaultTree& tree);

  /// Equivalent to shrink_to_minimal(tree, cs); `tree` must be
  /// structurally identical to the construction tree.
  CutSet shrink(const FaultTree& tree, CutSet cs) const;

 private:
  logic::FormulaStore store_;
  logic::NodeId root_;
  std::uint32_t num_events_;
};

/// Removes non-minimal sets from a family (absorption law): any set that
/// is a superset of another set in the family is dropped.
std::vector<CutSet> minimize_family(std::vector<CutSet> family);

/// Argmax of CutSet::probability over a family; ties broken towards the
/// smaller (then lexicographically smaller) set. Returns -1 if empty.
std::ptrdiff_t argmax_probability(const FaultTree& tree,
                                  const std::vector<CutSet>& family);

}  // namespace fta::ft
