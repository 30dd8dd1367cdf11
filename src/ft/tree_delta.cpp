#include "ft/tree_delta.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "ft/parser.hpp"
#include "util/json.hpp"

namespace fta::ft {

bool TreeDelta::weight_only() const {
  for (const DeltaOp& op : ops) {
    if (op.kind == DeltaOpKind::SubtreeReplace) return false;
  }
  return true;
}

DeltaOp TreeDelta::weight(std::string event, double probability) {
  DeltaOp op;
  op.kind = DeltaOpKind::WeightUpdate;
  op.target = std::move(event);
  op.probability = probability;
  return op;
}

DeltaOp TreeDelta::toggle(std::string event, bool enabled) {
  DeltaOp op;
  op.kind = DeltaOpKind::EventToggle;
  op.target = std::move(event);
  op.enabled = enabled;
  return op;
}

DeltaOp TreeDelta::replace(std::string gate, std::string subtree_text) {
  DeltaOp op;
  op.kind = DeltaOpKind::SubtreeReplace;
  op.target = std::move(gate);
  op.subtree = std::move(subtree_text);
  return op;
}

namespace {

EventIndex event_target(const FaultTree& tree, const DeltaOp& op) {
  const NodeIndex idx = tree.find(op.target);
  if (idx == kNoIndex) {
    throw DeltaError("unknown event '" + op.target + "'");
  }
  const Node& n = tree.node(idx);
  if (n.type != NodeType::BasicEvent) {
    throw DeltaError("'" + op.target + "' is a gate, not a basic event");
  }
  return n.event_index;
}

// Splices `op.subtree` over the gate named `op.target`: the target node is
// redefined in place as the replacement's root (parents stay wired, the
// name survives), replacement leaves reuse existing basic events by name
// (taking the replacement's probability), and all other replacement nodes
// are appended at fresh indices. The displaced subtree may become
// unreachable; unreachable nodes are inert for analysis.
void apply_replace(FaultTree& tree, const DeltaOp& op) {
  const NodeIndex target = tree.find(op.target);
  if (target == kNoIndex) {
    throw DeltaError("replace: unknown gate '" + op.target + "'");
  }
  if (tree.node(target).type == NodeType::BasicEvent) {
    throw DeltaError("replace: target '" + op.target +
                     "' is a basic event; only gates can be replaced");
  }
  FaultTree rep;
  try {
    rep = parse_fault_tree(op.subtree);
  } catch (const ParseError& e) {
    throw DeltaError(std::string("replace: bad subtree: ") + e.what());
  }
  const NodeIndex rtop = rep.top();
  if (rep.node(rtop).type == NodeType::BasicEvent) {
    throw DeltaError("replace: the subtree root must be a gate");
  }

  // Children-first walk of the replacement, mapping its indices into the
  // main tree as we go.
  std::vector<NodeIndex> map(rep.num_nodes(), kNoIndex);
  std::vector<std::pair<NodeIndex, bool>> stack{{rtop, false}};
  while (!stack.empty()) {
    auto [id, expanded] = stack.back();
    stack.pop_back();
    if (map[id] != kNoIndex) continue;
    const Node& rn = rep.node(id);
    if (!expanded) {
      stack.push_back({id, true});
      for (NodeIndex c : rn.children) {
        if (map[c] == kNoIndex) stack.push_back({c, false});
      }
      continue;
    }
    if (id == rtop) {
      map[id] = target;
      continue;
    }
    if (rn.type == NodeType::BasicEvent) {
      const NodeIndex existing = tree.find(rn.name);
      if (existing != kNoIndex) {
        if (tree.node(existing).type != NodeType::BasicEvent) {
          throw DeltaError("replace: '" + rn.name +
                           "' names a gate in the base tree");
        }
        const EventIndex e = tree.node(existing).event_index;
        tree.set_event_probability(e, rn.probability);
        tree.set_event_enabled(e, true);
        map[id] = existing;
      } else {
        map[id] = tree.add_basic_event(rn.name, rn.probability);
      }
    } else {
      if (tree.find(rn.name) != kNoIndex) {
        throw DeltaError("replace: gate name '" + rn.name +
                         "' already exists in the base tree");
      }
      std::vector<NodeIndex> kids;
      kids.reserve(rn.children.size());
      for (NodeIndex c : rn.children) kids.push_back(map[c]);
      map[id] = rn.type == NodeType::Vote
                    ? tree.add_vote_gate(rn.name, rn.k, std::move(kids))
                    : tree.add_gate(rn.name, rn.type, std::move(kids));
    }
  }

  const Node& root = rep.node(rtop);
  std::vector<NodeIndex> kids;
  kids.reserve(root.children.size());
  for (NodeIndex c : root.children) kids.push_back(map[c]);
  tree.reset_gate(target, root.type, root.k, std::move(kids));
}

}  // namespace

FaultTree apply_delta(const FaultTree& tree, const TreeDelta& delta) {
  FaultTree out = tree;
  try {
    for (const DeltaOp& op : delta.ops) {
      switch (op.kind) {
        case DeltaOpKind::WeightUpdate: {
          const EventIndex e = event_target(out, op);
          if (!(op.probability >= 0.0 && op.probability <= 1.0)) {
            throw DeltaError("probability of '" + op.target +
                             "' out of [0,1]: " +
                             std::to_string(op.probability));
          }
          out.set_event_probability(e, op.probability);
          break;
        }
        case DeltaOpKind::EventToggle:
          out.set_event_enabled(event_target(out, op), op.enabled);
          break;
        case DeltaOpKind::SubtreeReplace:
          apply_replace(out, op);
          break;
      }
    }
    out.validate();
  } catch (const ValidationError& e) {
    throw DeltaError(e.what());
  }
  return out;
}

std::vector<EventIndex> touched_events(const FaultTree& tree,
                                       const TreeDelta& delta) {
  std::vector<EventIndex> touched;
  for (const DeltaOp& op : delta.ops) {
    if (op.kind == DeltaOpKind::SubtreeReplace) continue;
    touched.push_back(event_target(tree, op));
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  return touched;
}

bool structural_equal(const FaultTree& a, NodeIndex root_a,
                      const FaultTree& b, NodeIndex root_b,
                      bool compare_probabilities) {
  // Pairwise DFS with an a->b correspondence map; a divergent mapping
  // means the sharing structure differs.
  std::unordered_map<NodeIndex, NodeIndex> mapped;
  std::vector<std::pair<NodeIndex, NodeIndex>> stack{{root_a, root_b}};
  while (!stack.empty()) {
    auto [x, y] = stack.back();
    stack.pop_back();
    auto it = mapped.find(x);
    if (it != mapped.end()) {
      if (it->second != y) return false;
      continue;
    }
    mapped.emplace(x, y);
    const Node& nx = a.node(x);
    const Node& ny = b.node(y);
    if (nx.type != ny.type) return false;
    if (nx.type == NodeType::BasicEvent) {
      if (nx.event_index != ny.event_index) return false;
      if (compare_probabilities) {
        const double px = nx.enabled ? nx.probability : 0.0;
        const double py = ny.enabled ? ny.probability : 0.0;
        if (px != py) return false;
      }
      continue;
    }
    if (nx.type == NodeType::Vote && nx.k != ny.k) return false;
    if (nx.children.size() != ny.children.size()) return false;
    for (std::size_t i = 0; i < nx.children.size(); ++i) {
      stack.push_back({nx.children[i], ny.children[i]});
    }
  }
  return true;
}

bool structural_equal(const FaultTree& a, const FaultTree& b,
                      bool compare_probabilities) {
  if (!a.has_top() || !b.has_top()) return false;
  return structural_equal(a, a.top(), b, b.top(), compare_probabilities);
}

TreeDelta parse_tree_delta(const util::JsonValue& json) {
  if (!json.is_array()) {
    throw DeltaError("delta must be a JSON array of edit ops");
  }
  TreeDelta delta;
  for (const auto& item : json.items()) {
    if (!item.is_object()) throw DeltaError("delta op must be an object");
    const std::string op = item.get_string("op", "");
    if (op == "weight") {
      const util::JsonValue* event = item.find("event");
      const util::JsonValue* p = item.find("probability");
      if (!event || !event->is_string() || !p || !p->is_number()) {
        throw DeltaError(
            "weight op needs a string 'event' and numeric 'probability'");
      }
      delta.ops.push_back(TreeDelta::weight(event->as_string(),
                                            p->as_number()));
    } else if (op == "toggle") {
      const util::JsonValue* event = item.find("event");
      const util::JsonValue* enabled = item.find("enabled");
      if (!event || !event->is_string() || !enabled || !enabled->is_bool()) {
        throw DeltaError(
            "toggle op needs a string 'event' and boolean 'enabled'");
      }
      delta.ops.push_back(TreeDelta::toggle(event->as_string(),
                                            enabled->as_bool()));
    } else if (op == "replace") {
      const util::JsonValue* gate = item.find("gate");
      const util::JsonValue* subtree = item.find("subtree");
      if (!gate || !gate->is_string() || !subtree || !subtree->is_string()) {
        throw DeltaError(
            "replace op needs a string 'gate' and a string 'subtree'");
      }
      delta.ops.push_back(TreeDelta::replace(gate->as_string(),
                                             subtree->as_string()));
    } else {
      throw DeltaError("unknown delta op '" + op + "'");
    }
  }
  return delta;
}

}  // namespace fta::ft
