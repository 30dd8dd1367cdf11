#include "analysis/modules.hpp"

#include <algorithm>
#include <cstdint>
#include <unordered_map>

namespace fta::analysis {

std::vector<ModuleInfo> find_modules(const ft::FaultTree& tree) {
  tree.validate();
  const std::size_t n = tree.num_nodes();
  // Visit dates start at 1; 0 marks a node the walk has not reached.
  std::vector<std::uint32_t> first(n, 0), last(n, 0), exit(n, 0);
  std::vector<std::size_t> events_under(n, 0);
  std::vector<ft::NodeIndex> post_order;  // gates, children first
  std::uint32_t date = 0;
  std::size_t events_seen = 0;

  // Pass 1: the dated depth-first walk. An arrival at a node already seen
  // only moves its last-visit date; a first arrival at a gate opens its
  // frame, whose event tally at closing counts exactly the events first
  // reached inside it (all of them, when the gate is a module).
  struct Frame {
    ft::NodeIndex node;
    std::size_t next_child = 0;
    std::size_t events_before = 0;
  };
  std::vector<Frame> stack;
  const auto arrive = [&](ft::NodeIndex id) {
    last[id] = ++date;
    if (first[id] != 0) return;
    first[id] = date;
    if (tree.node(id).type == ft::NodeType::BasicEvent) {
      ++events_seen;
      return;
    }
    stack.push_back({id, 0, events_seen});
  };
  arrive(tree.top());
  while (!stack.empty()) {
    Frame& f = stack.back();
    const ft::Node& node = tree.node(f.node);
    if (f.next_child < node.children.size()) {
      arrive(node.children[f.next_child++]);  // may reallocate `stack`
      continue;
    }
    exit[f.node] = ++date;
    events_under[f.node] = events_seen - f.events_before;
    post_order.push_back(f.node);
    stack.pop_back();
  }

  // Pass 2: children first, fold every node's dates into the earliest
  // first visit and the latest last visit at or below it.
  std::vector<std::uint32_t> lo = first, hi = last;
  std::vector<bool> module(n, false);
  for (const ft::NodeIndex g : post_order) {
    std::uint32_t min_first = UINT32_MAX, max_last = 0;
    for (const ft::NodeIndex c : tree.node(g).children) {
      min_first = std::min(min_first, lo[c]);
      max_last = std::max(max_last, hi[c]);
    }
    module[g] = min_first > first[g] && max_last < exit[g];
    lo[g] = std::min(lo[g], min_first);
    hi[g] = std::max(hi[g], max_last);
  }

  std::vector<ModuleInfo> modules;
  for (ft::NodeIndex g = 0; g < n; ++g) {
    if (module[g]) modules.push_back(ModuleInfo{g, events_under[g]});
  }
  return modules;
}

ExtractedModule extract_module(const ft::FaultTree& tree,
                               ft::NodeIndex gate) {
  ExtractedModule out;
  // Post-order copy: children are materialised before the gate that uses
  // them. `mapping` keeps shared sub-DAGs shared in the copy; it is keyed
  // by node so an extraction costs the size of the module, not the tree.
  std::unordered_map<ft::NodeIndex, ft::NodeIndex> mapping;
  struct Frame {
    ft::NodeIndex node;
    std::size_t next_child = 0;
  };
  std::vector<Frame> stack{{gate}};
  while (!stack.empty()) {
    Frame& f = stack.back();
    const ft::Node& n = tree.node(f.node);
    if (mapping.count(f.node) != 0) {
      stack.pop_back();
      continue;
    }
    if (f.next_child < n.children.size()) {
      stack.push_back({n.children[f.next_child++]});
      continue;
    }
    if (n.type == ft::NodeType::BasicEvent) {
      mapping[f.node] = out.tree.add_basic_event(
          n.name, n.enabled ? n.probability : 0.0);
      out.event_map.push_back(n.event_index);
    } else {
      std::vector<ft::NodeIndex> children;
      children.reserve(n.children.size());
      for (const ft::NodeIndex c : n.children) children.push_back(mapping[c]);
      mapping[f.node] =
          n.type == ft::NodeType::Vote
              ? out.tree.add_vote_gate(n.name, n.k, std::move(children))
              : out.tree.add_gate(n.name, n.type, std::move(children));
    }
    stack.pop_back();
  }
  out.tree.set_top(mapping[gate]);
  out.tree.validate();
  return out;
}

bool is_module(const ft::FaultTree& tree, ft::NodeIndex gate) {
  const auto modules = find_modules(tree);
  return std::any_of(modules.begin(), modules.end(),
                     [gate](const ModuleInfo& m) { return m.gate == gate; });
}

}  // namespace fta::analysis
