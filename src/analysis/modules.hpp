// Fault-tree modularization (Dutuit & Rauzy's linear-time algorithm).
//
// A *module* is a gate whose descendants are reached only through it: it
// can be analysed independently and treated as a single super-event by
// its parents. Modularization is the classical lever for scaling exact
// FTA; the pipeline's module pass (maxsat/stratified) is built on it.
//
// Detection is the two-date DFS of Dutuit & Rauzy (1996): one iterative
// depth-first walk from the top stamps every node with the date of its
// first visit, of its last visit (each re-encounter through another
// parent) and, for gates, of the end of its visit. Gate g is a module iff
// every descendant is first visited after g's first visit and last
// visited before g's visit ends — no path reaches a descendant except
// through g. A second, children-first sweep folds the descendants' dates
// into per-gate minima and maxima, so the whole test is O(nodes + edges).
#pragma once

#include <vector>

#include "ft/fault_tree.hpp"

namespace fta::analysis {

struct ModuleInfo {
  ft::NodeIndex gate = ft::kNoIndex;
  std::size_t descendant_events = 0;  ///< Events under this module.
};

/// All modules of the tree reachable from the top, in node-index order,
/// excluding trivial ones (basic events). The top gate is always a module
/// and is included. Linear in the size of the tree.
std::vector<ModuleInfo> find_modules(const ft::FaultTree& tree);

/// True iff `gate` is a module of the tree.
bool is_module(const ft::FaultTree& tree, ft::NodeIndex gate);

/// A module lifted out as a standalone fault tree. Events are renumbered
/// densely in the subtree; `event_map` translates the subtree's
/// EventIndex space back to the original tree's (cut sets computed on the
/// extracted tree map back through it).
struct ExtractedModule {
  ft::FaultTree tree;
  std::vector<ft::EventIndex> event_map;  ///< subtree index -> original.
};

/// Copies the subtree rooted at `gate` (which need not be a module — the
/// caller guarantees independence when it matters) into its own tree,
/// preserving node names, gate types/thresholds and event probabilities.
/// Deterministic: node visitation order depends only on the tree shape.
ExtractedModule extract_module(const ft::FaultTree& tree, ft::NodeIndex gate);

}  // namespace fta::analysis
