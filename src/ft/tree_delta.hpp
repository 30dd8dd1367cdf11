// First-class fault-tree edits (the mutation API).
//
// A TreeDelta is an ordered list of edits against a validated tree:
//
//   * WeightUpdate   — change one event's occurrence probability;
//   * EventToggle    — disable an event (effective p = 0) or re-enable it
//                      (the configured probability is restored);
//   * SubtreeReplace — splice a new subtree (given in the parser's text
//                      format) over an existing gate.
//
// Targets are addressed by node *name* — the stable identity across edits
// and the natural key for JSON clients. apply_delta() is index-stable:
// existing nodes keep their NodeIndex/EventIndex (splices redefine the
// target gate in place and append new nodes at fresh indices), which is
// what lets prepared solver artefacts keyed by event index be patched
// instead of rebuilt (core::MpmcsPipeline::apply_delta).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "ft/fault_tree.hpp"

namespace fta::util {
class JsonValue;
}

namespace fta::ft {

class DeltaError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class DeltaOpKind : std::uint8_t {
  WeightUpdate,
  EventToggle,
  SubtreeReplace,
};

struct DeltaOp {
  DeltaOpKind kind = DeltaOpKind::WeightUpdate;
  std::string target;        ///< Event name (weight/toggle) or gate name.
  double probability = 0.0;  ///< WeightUpdate only.
  bool enabled = true;       ///< EventToggle only.
  std::string subtree;       ///< SubtreeReplace only: parser-format text.
};

struct TreeDelta {
  std::vector<DeltaOp> ops;

  /// True when every op is a weight update or toggle — the class of edits
  /// that leave the tree's structure (and thus all hard clauses) intact.
  bool weight_only() const;

  bool empty() const { return ops.empty(); }

  static DeltaOp weight(std::string event, double probability);
  static DeltaOp toggle(std::string event, bool enabled);
  static DeltaOp replace(std::string gate, std::string subtree_text);
};

/// Applies `delta` to a copy of `tree` and validates the result. Existing
/// nodes keep their indices; splices may append new nodes (and leave the
/// replaced subtree's old nodes unreachable — they are ignored by
/// formula conversion and solving). Throws DeltaError on unknown targets,
/// type mismatches, probabilities outside [0,1], or a resulting tree
/// that fails validation.
FaultTree apply_delta(const FaultTree& tree, const TreeDelta& delta);

/// Events whose effective probability the weight/toggle ops change
/// (sorted, deduplicated). SubtreeReplace ops are ignored here — callers
/// must treat them as structural.
std::vector<EventIndex> touched_events(const FaultTree& tree,
                                       const TreeDelta& delta);

/// Deep structural equality of the DAGs reachable from the two tops:
/// same shape, gate types/thresholds, child order, DAG sharing, event
/// indices and (when `compare_probabilities`) effective probabilities
/// (bit-exact). Names are ignored, mirroring engine-level structural
/// keys. With `compare_probabilities` false the result says "same hard
/// clauses, possibly different soft weights" — the class of difference
/// the mutation path can patch by reweighting alone.
bool structural_equal(const FaultTree& a, const FaultTree& b,
                      bool compare_probabilities = true);
bool structural_equal(const FaultTree& a, NodeIndex root_a,
                      const FaultTree& b, NodeIndex root_b,
                      bool compare_probabilities = true);

/// Parses the JSON wire form: an array of op objects, e.g.
///   [{"op":"weight","event":"pump","probability":0.2},
///    {"op":"toggle","event":"valve","enabled":false},
///    {"op":"replace","gate":"G2","subtree":"toplevel R; R and a b; ..."}]
/// Throws DeltaError on schema violations.
TreeDelta parse_tree_delta(const util::JsonValue& json);

}  // namespace fta::ft
