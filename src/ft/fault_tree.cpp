#include "ft/fault_tree.hpp"

#include <algorithm>
#include <cassert>

namespace fta::ft {

const char* node_type_name(NodeType t) noexcept {
  switch (t) {
    case NodeType::BasicEvent: return "event";
    case NodeType::And: return "and";
    case NodeType::Or: return "or";
    case NodeType::Vote: return "vote";
  }
  return "?";
}

void FaultTree::check_name(const std::string& name) const {
  if (name.empty()) throw ValidationError("node name must not be empty");
  if (find(name) != kNoIndex) {
    throw ValidationError("duplicate node name: " + name);
  }
}

NodeIndex FaultTree::push(Node n) {
  nodes_.push_back(std::move(n));
  return names_.insert(nodes_.back().name, node_name());
}

NodeIndex FaultTree::add_basic_event(std::string name, double probability) {
  check_name(name);
  if (!(probability >= 0.0 && probability <= 1.0)) {
    throw ValidationError("probability of '" + name +
                          "' out of [0,1]: " + std::to_string(probability));
  }
  Node n;
  n.name = std::move(name);
  n.type = NodeType::BasicEvent;
  n.probability = probability;
  n.event_index = static_cast<EventIndex>(event_nodes_.size());
  const NodeIndex idx = push(std::move(n));
  event_nodes_.push_back(idx);
  return idx;
}

NodeIndex FaultTree::add_gate(std::string name, NodeType type,
                              std::vector<NodeIndex> children) {
  if (type != NodeType::And && type != NodeType::Or) {
    throw ValidationError("add_gate accepts And/Or only");
  }
  check_name(name);
  for (NodeIndex c : children) {
    if (c >= nodes_.size()) {
      throw ValidationError("gate '" + name + "' references unknown child");
    }
  }
  Node n;
  n.name = std::move(name);
  n.type = type;
  n.children = std::move(children);
  return push(std::move(n));
}

NodeIndex FaultTree::add_vote_gate(std::string name, std::uint32_t k,
                                   std::vector<NodeIndex> children) {
  check_name(name);
  for (NodeIndex c : children) {
    if (c >= nodes_.size()) {
      throw ValidationError("gate '" + name + "' references unknown child");
    }
  }
  if (k < 1 || k > children.size()) {
    throw ValidationError("vote gate '" + name + "': k=" + std::to_string(k) +
                          " out of range for " +
                          std::to_string(children.size()) + " children");
  }
  Node n;
  n.name = std::move(name);
  n.type = NodeType::Vote;
  n.k = k;
  n.children = std::move(children);
  return push(std::move(n));
}

void FaultTree::reserve(std::size_t nodes, std::size_t events) {
  nodes_.reserve(nodes);
  event_nodes_.reserve(events);
  names_.reserve(nodes, node_name());
}

void FaultTree::validate() const {
  if (!has_top()) throw ValidationError("no top event set");
  if (top_ >= nodes_.size()) throw ValidationError("top index out of range");

  // Cycle check via iterative three-colour DFS.
  enum class Colour : std::uint8_t { White, Grey, Black };
  std::vector<Colour> colour(nodes_.size(), Colour::White);
  std::vector<std::pair<NodeIndex, std::size_t>> stack;  // (node, next child)
  stack.push_back({top_, 0});
  colour[top_] = Colour::Grey;
  while (!stack.empty()) {
    auto& [id, next] = stack.back();
    const Node& n = nodes_[id];
    if (next == n.children.size()) {
      colour[id] = Colour::Black;
      stack.pop_back();
      continue;
    }
    const NodeIndex c = n.children[next++];
    if (colour[c] == Colour::Grey) {
      throw ValidationError("cycle detected through node '" + nodes_[c].name +
                            "'");
    }
    if (colour[c] == Colour::White) {
      colour[c] = Colour::Grey;
      stack.push_back({c, 0});
    }
  }

  for (const Node& n : nodes_) {
    if (n.type == NodeType::BasicEvent) {
      if (!(n.probability >= 0.0 && n.probability <= 1.0)) {
        throw ValidationError("event '" + n.name + "' probability out of range");
      }
      if (!n.children.empty()) {
        throw ValidationError("event '" + n.name + "' must be a leaf");
      }
    } else {
      if (n.children.empty()) {
        throw ValidationError("gate '" + n.name + "' has no children");
      }
      if (n.type == NodeType::Vote &&
          (n.k < 1 || n.k > n.children.size())) {
        throw ValidationError("vote gate '" + n.name + "': bad threshold");
      }
    }
  }
}

std::vector<double> FaultTree::event_probabilities() const {
  std::vector<double> probs(event_nodes_.size());
  for (std::size_t e = 0; e < event_nodes_.size(); ++e) {
    const Node& n = nodes_[event_nodes_[e]];
    probs[e] = n.enabled ? n.probability : 0.0;
  }
  return probs;
}

NodeIndex FaultTree::find(const std::string& name) const {
  static_assert(util::NameIndex::kNone == kNoIndex);
  return names_.find(name, node_name());
}

void FaultTree::set_event_probability(EventIndex e, double probability) {
  if (!(probability >= 0.0 && probability <= 1.0)) {
    throw ValidationError("probability out of [0,1]");
  }
  nodes_[event_nodes_.at(e)].probability = probability;
}

void FaultTree::set_event_enabled(EventIndex e, bool enabled) {
  nodes_[event_nodes_.at(e)].enabled = enabled;
}

void FaultTree::reset_gate(NodeIndex gate, NodeType type, std::uint32_t k,
                           std::vector<NodeIndex> children) {
  if (gate >= nodes_.size()) throw ValidationError("reset_gate: bad index");
  Node& n = nodes_[gate];
  if (n.type == NodeType::BasicEvent) {
    throw ValidationError("reset_gate: '" + n.name + "' is a basic event");
  }
  if (type == NodeType::BasicEvent) {
    throw ValidationError("reset_gate: replacement root must be a gate");
  }
  for (NodeIndex c : children) {
    if (c >= nodes_.size()) {
      throw ValidationError("reset_gate: '" + n.name +
                            "' references unknown child");
    }
  }
  if (type == NodeType::Vote && (k < 1 || k > children.size())) {
    throw ValidationError("reset_gate: '" + n.name + "': bad threshold");
  }
  n.type = type;
  n.k = type == NodeType::Vote ? k : 0;
  n.children = std::move(children);
}

TreeStats FaultTree::stats() const {
  TreeStats s;
  // Depth over the DAG reachable from the top (unreachable nodes ignored).
  std::vector<std::size_t> depth(nodes_.size(), 0);
  std::vector<bool> visited(nodes_.size(), false);
  std::vector<std::pair<NodeIndex, bool>> stack{{top_, false}};
  while (!stack.empty()) {
    auto [id, expanded] = stack.back();
    stack.pop_back();
    const Node& n = nodes_[id];
    if (expanded) {
      std::size_t d = 0;
      for (NodeIndex c : n.children) d = std::max(d, depth[c] + 1);
      depth[id] = d;
      continue;
    }
    if (visited[id]) continue;
    visited[id] = true;
    stack.push_back({id, true});
    for (NodeIndex c : n.children) {
      if (!visited[c]) stack.push_back({c, false});
    }
    switch (n.type) {
      case NodeType::BasicEvent: ++s.events; break;
      case NodeType::And: ++s.gates; ++s.and_gates; break;
      case NodeType::Or: ++s.gates; ++s.or_gates; break;
      case NodeType::Vote: ++s.gates; ++s.vote_gates; break;
    }
  }
  s.max_depth = has_top() ? depth[top_] : 0;
  return s;
}

std::vector<NodeIndex> FaultTree::gates_top_down() const {
  std::vector<NodeIndex> order;
  if (!has_top()) return order;
  std::vector<char> seen(nodes_.size(), 0);
  std::vector<NodeIndex> stack{top_};
  while (!stack.empty()) {
    const NodeIndex id = stack.back();
    stack.pop_back();
    const Node& n = nodes_[id];
    if (seen[id] || n.type == NodeType::BasicEvent) continue;
    seen[id] = 1;
    order.push_back(id);
    stack.insert(stack.end(), n.children.rbegin(), n.children.rend());
  }
  return order;
}

logic::NodeId FaultTree::to_formula(logic::FormulaStore& store,
                                    NodeIndex root) const {
  std::vector<logic::NodeId> memo(nodes_.size(), logic::kNoNode);
  // Children-first iterative translation so deep trees don't overflow the
  // call stack.
  std::vector<std::pair<NodeIndex, bool>> stack{{root, false}};
  while (!stack.empty()) {
    auto [id, expanded] = stack.back();
    stack.pop_back();
    if (memo[id] != logic::kNoNode) continue;
    const Node& n = nodes_[id];
    if (!expanded) {
      stack.push_back({id, true});
      for (NodeIndex c : n.children) {
        if (memo[c] == logic::kNoNode) stack.push_back({c, false});
      }
      continue;
    }
    std::vector<logic::NodeId> kids;
    kids.reserve(n.children.size());
    for (NodeIndex c : n.children) kids.push_back(memo[c]);
    switch (n.type) {
      case NodeType::BasicEvent:
        memo[id] = store.var(n.event_index);
        break;
      case NodeType::And:
        memo[id] = store.land(kids);
        break;
      case NodeType::Or:
        memo[id] = store.lor(kids);
        break;
      case NodeType::Vote:
        memo[id] = store.at_least(n.k, kids);
        break;
    }
  }
  return memo[root];
}

}  // namespace fta::ft
