// The fault-tree model (the library's central domain object).
//
// A fault tree is a rooted DAG: basic events (leaves, each with an
// occurrence probability) are combined by AND / OR / VOT(k-of-n) gates up
// to a designated top event. Sharing is allowed — a gate or event may feed
// several parents — which is why "tree" is, as usual in FTA, a courtesy
// title.
//
// Construction is incremental (add events/gates, set the top, then
// validate()); analyses require a validated tree. Basic events are also
// assigned dense indices 0..num_events()-1 in insertion order; these
// indices double as propositional variable indices when the tree is
// converted to a logic::Formula, and as the members of CutSets.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "logic/formula.hpp"
#include "util/name_index.hpp"

namespace fta::ft {

using NodeIndex = std::uint32_t;
inline constexpr NodeIndex kNoIndex = 0xffffffffu;

/// Index of a basic event in [0, num_events()); doubles as the logic
/// variable index in formulas derived from the tree.
using EventIndex = std::uint32_t;

enum class NodeType : std::uint8_t { BasicEvent, And, Or, Vote };

const char* node_type_name(NodeType t) noexcept;

struct Node {
  std::string name;
  NodeType type = NodeType::BasicEvent;
  double probability = 0.0;          ///< Basic events only (configured value).
  bool enabled = true;               ///< Basic events only; disabled => p = 0.
  std::uint32_t k = 0;               ///< Vote gates only (k of n).
  std::vector<NodeIndex> children;   ///< Gates only.
  EventIndex event_index = kNoIndex; ///< Basic events only.
};

class ValidationError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct TreeStats {
  std::size_t events = 0;
  std::size_t gates = 0;
  std::size_t and_gates = 0;
  std::size_t or_gates = 0;
  std::size_t vote_gates = 0;
  std::size_t max_depth = 0;  ///< Longest top-to-leaf path.
};

class FaultTree {
 public:
  // --- construction -----------------------------------------------------

  /// Adds a basic event; `probability` must lie in [0, 1].
  NodeIndex add_basic_event(std::string name, double probability);

  /// Adds an AND/OR gate over `children` (indices of existing nodes).
  NodeIndex add_gate(std::string name, NodeType type,
                     std::vector<NodeIndex> children);

  /// Adds a k-of-n voting gate: true iff at least `k` children are true.
  NodeIndex add_vote_gate(std::string name, std::uint32_t k,
                          std::vector<NodeIndex> children);

  void set_top(NodeIndex top) { top_ = top; }

  /// Makes room for `nodes` nodes, `events` of them basic events.
  void reserve(std::size_t nodes, std::size_t events);

  /// Checks structural well-formedness: a top is set, the graph is acyclic,
  /// every gate has children, vote thresholds satisfy 1 <= k <= n, names
  /// are unique (enforced at insertion) and probabilities are in range.
  /// Throws ValidationError describing the first problem found.
  void validate() const;

  // --- access -------------------------------------------------------------

  NodeIndex top() const noexcept { return top_; }
  bool has_top() const noexcept { return top_ != kNoIndex; }
  const Node& node(NodeIndex i) const { return nodes_.at(i); }
  std::size_t num_nodes() const noexcept { return nodes_.size(); }
  std::size_t num_events() const noexcept { return event_nodes_.size(); }

  /// Node index of the i-th basic event (inverse of Node::event_index).
  NodeIndex event_node(EventIndex e) const { return event_nodes_.at(e); }
  const Node& event(EventIndex e) const { return nodes_.at(event_nodes_.at(e)); }

  /// Effective probability of the i-th basic event: the configured value,
  /// or 0 while the event is disabled (it cannot occur).
  double event_probability(EventIndex e) const {
    const Node& n = nodes_[event_nodes_.at(e)];
    return n.enabled ? n.probability : 0.0;
  }

  /// The configured probability, regardless of the enabled flag.
  double event_configured_probability(EventIndex e) const {
    return nodes_[event_nodes_.at(e)].probability;
  }

  bool event_enabled(EventIndex e) const {
    return nodes_[event_nodes_.at(e)].enabled;
  }

  /// All event probabilities, indexed by EventIndex.
  std::vector<double> event_probabilities() const;

  /// Finds a node by name; kNoIndex if absent.
  NodeIndex find(const std::string& name) const;

  /// Updates an event's probability (e.g. for sensitivity analysis).
  void set_event_probability(EventIndex e, double probability);

  /// Enables/disables an event. Disabling is a reversible overlay: the
  /// configured probability is kept and restored on re-enable.
  void set_event_enabled(EventIndex e, bool enabled);

  /// Redefines an existing gate in place (type, threshold, children) while
  /// keeping its node index — parents stay wired. Used by subtree splicing;
  /// callers must re-validate() afterwards.
  void reset_gate(NodeIndex gate, NodeType type, std::uint32_t k,
                  std::vector<NodeIndex> children);

  TreeStats stats() const;

  /// The gates reachable from the top, in depth-first preorder with each
  /// gate's inputs left to right: the order the writers list gates in.
  std::vector<NodeIndex> gates_top_down() const;

  // --- conversion ---------------------------------------------------------

  /// Builds f(t): the Boolean function of the top event over variables
  /// x_e = "basic event e occurs" (variable index == EventIndex).
  /// The result is monotone (no negations).
  logic::NodeId to_formula(logic::FormulaStore& store) const {
    return to_formula(store, top_);
  }

  /// Same, rooted at an arbitrary node.
  logic::NodeId to_formula(logic::FormulaStore& store, NodeIndex root) const;

 private:
  /// Throws ValidationError when `name` is empty or taken.
  void check_name(const std::string& name) const;
  /// Appends `n` and indexes its name.
  NodeIndex push(Node n);
  auto node_name() const {
    return [this](NodeIndex i) -> std::string_view { return nodes_[i].name; };
  }

  std::vector<Node> nodes_;
  std::vector<NodeIndex> event_nodes_;  // EventIndex -> NodeIndex
  util::NameIndex names_;               // name -> NodeIndex
  NodeIndex top_ = kNoIndex;
};

}  // namespace fta::ft
