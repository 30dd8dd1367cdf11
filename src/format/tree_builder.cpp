#include "format/tree_builder.hpp"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <utility>

namespace fta::format {

namespace {

/// 1-based (line, column) of a byte offset; columns count bytes.
std::pair<std::size_t, std::size_t> offset_position(std::string_view text,
                                                    std::size_t offset) {
  const std::size_t end = offset < text.size() ? offset : text.size();
  std::size_t line = 1, line_start = 0;
  for (std::size_t i = 0; i < end; ++i) {
    if (text[i] == '\n') {
      ++line;
      line_start = i + 1;
    }
  }
  return {line, end - line_start + 1};
}

}  // namespace

std::optional<double> parse_number(std::string_view text) {
  // from_chars and strtod both round correctly, so they agree wherever
  // from_chars reads all of the text as a normal number; the rest of
  // std::stod's grammar and the range check go through strtod.
  double v = 0.0;
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, v);
  if (ec == std::errc() && stop == end && std::isnormal(v)) return v;
  const std::string copy(text);
  char* parsed = nullptr;
  errno = 0;
  v = std::strtod(copy.c_str(), &parsed);
  if (parsed == copy.c_str() || parsed != copy.c_str() + copy.size()) {
    return std::nullopt;
  }
  // ERANGE means overflow (an infinity) or underflow; a nonzero result of
  // an underflow is the subnormal nearest the text, and is kept.
  if (errno == ERANGE && (v == 0.0 || std::isinf(v))) return std::nullopt;
  return v;
}

TreeBuilder::TreeBuilder(TreeFormat format, std::string_view text)
    : format_(format), text_(text) {}

TreeBuilder::Id TreeBuilder::intern(std::string_view name, std::size_t at) {
  const Id id =
      names_.insert(name, [this](Id i) { return entries_[i].name; });
  if (id == entries_.size()) entries_.push_back({.name = name, .at = at});
  return id;
}

std::string_view TreeBuilder::keep(std::string_view s) {
  return kept_.emplace_back(s);
}

void TreeBuilder::event(Id id, double p, std::size_t at) {
  Entry& e = entries_[id];
  e.event = true;
  e.probability = p;
  if (!is_gate(id)) e.at = at;
  events_.push_back(id);
}

void TreeBuilder::gate(Id id, ft::NodeType type, std::uint32_t k,
                       std::span<const Id> children, std::size_t at) {
  Entry& e = entries_[id];
  e.type = type;
  e.k = k;
  e.at = at;
  e.first_child = static_cast<std::uint32_t>(children_.size());
  e.num_children = static_cast<std::uint32_t>(children.size());
  children_.insert(children_.end(), children.begin(), children.end());
  gates_.push_back(id);
}

void TreeBuilder::fail(std::size_t at, const std::string& detail) const {
  const auto [line, column] = offset_position(text_, at);
  throw ParseError(format_, line, column, detail);
}

ft::FaultTree TreeBuilder::build(Id top, EventOrder order) {
  // Basic events, in the reader's order.
  std::vector<Id> events;
  if (order == EventOrder::FirstMention) {
    for (Id id = 0; id < entries_.size(); ++id) {
      if (!is_gate(id)) events.push_back(id);
    }
  } else {
    std::vector<char> listed(entries_.size(), 0);
    for (const Id id : events_) {
      if (!is_gate(id) && !listed[id]) {
        listed[id] = 1;
        events.push_back(id);
      }
    }
    for (const Id g : gates_) {
      const Entry& e = entries_[g];
      for (std::uint32_t i = 0; i < e.num_children; ++i) {
        const Id c = children_[e.first_child + i];
        if (is_gate(c) || listed[c]) continue;
        if (order == EventOrder::DeclaredOnly) {
          fail(entries_[c].at, "gate '" + std::string(e.name) +
                                   "': undefined child '" +
                                   std::string(entries_[c].name) + "'");
        }
        listed[c] = 1;
        events.push_back(c);
      }
    }
  }

  ft::FaultTree tree;
  tree.reserve(events.size() + gates_.size(), events.size());
  for (const Id id : events) {
    Entry& e = entries_[id];
    try {
      e.node = tree.add_basic_event(std::string(e.name), e.probability);
    } catch (const ft::ValidationError& err) {
      fail(e.at, err.what());
    }
  }

  // Gates children-first: one iterative colour DFS. A node is black once
  // it has a NodeIndex and grey while it is on the path.
  std::vector<std::pair<Id, std::uint32_t>> path;  // (gate, inputs left)
  std::vector<ft::NodeIndex> kids;
  for (const Id root : gates_) {
    if (entries_[root].node != ft::kNoIndex) continue;
    entries_[root].on_path = true;
    path.emplace_back(root, entries_[root].num_children);
    while (!path.empty()) {
      auto& [id, left] = path.back();
      Entry& g = entries_[id];
      if (left == 0) {
        if (g.num_children == 0) {
          fail(g.at, "gate '" + std::string(g.name) + "' has no children");
        }
        kids.clear();
        for (std::uint32_t i = 0; i < g.num_children; ++i) {
          kids.push_back(entries_[children_[g.first_child + i]].node);
        }
        try {
          g.node = g.type == ft::NodeType::Vote
                       ? tree.add_vote_gate(std::string(g.name), g.k, kids)
                       : tree.add_gate(std::string(g.name), g.type, kids);
        } catch (const ft::ValidationError& err) {
          fail(g.at, err.what());
        }
        g.on_path = false;
        path.pop_back();
        continue;
      }
      const Id c = children_[g.first_child + --left];
      Entry& child = entries_[c];
      if (child.node != ft::kNoIndex) continue;
      if (child.on_path) {
        fail(child.at, "cycle through gate '" + std::string(child.name) + "'");
      }
      child.on_path = true;
      path.emplace_back(c, child.num_children);
    }
  }

  // The checks above and FaultTree's own on insertion cover everything
  // validate() would check again: names, probabilities, thresholds,
  // non-empty gates and acyclicity.
  tree.set_top(entries_[top].node);
  return tree;
}

}  // namespace fta::format
