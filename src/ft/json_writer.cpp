#include "ft/json_writer.hpp"

#include <algorithm>
#include <charconv>
#include <vector>

#include "util/strings.hpp"

namespace fta::ft {

namespace {

/// Appends the Fig. 2 document into one string: no stream, no temporary
/// per value. Strings and numbers follow util's JSON rules.
class JsonPrinter {
 public:
  JsonPrinter(std::string& out, int indent)
      : out_(out), indent_(indent > 0 ? static_cast<std::size_t>(indent) : 0) {}

  void open(char bracket) {
    out_ += bracket;
    ++depth_;
    first_ = true;
  }
  void close(char bracket) {
    --depth_;
    newline();
    out_ += bracket;
    first_ = false;
  }
  void key(std::string_view k) {
    comma();
    newline();
    out_ += '"';
    out_ += k;  // keys are literals without characters to escape
    out_ += "\": ";
    first_ = true;  // value follows without a comma
  }
  void item() {
    comma();
    newline();
  }
  void raw(std::string_view v) {
    out_ += v;
    first_ = false;
  }
  void str(std::string_view v) {
    out_ += '"';
    util::append_json_escaped(out_, v);
    out_ += '"';
    first_ = false;
  }
  void num(double v) {
    util::append_json_number(out_, v);
    first_ = false;
  }
  void num(std::uint64_t v) {
    char buf[24];
    const auto r = std::to_chars(buf, buf + sizeof buf, v);
    raw(std::string_view(buf, static_cast<std::size_t>(r.ptr - buf)));
  }
  void boolean(bool v) { raw(v ? "true" : "false"); }

 private:
  void comma() {
    if (!first_) out_ += ',';
    first_ = false;
  }
  void newline() {
    if (indent_ == 0) return;
    out_ += '\n';
    out_.append(depth_ * indent_, ' ');
  }

  std::string& out_;
  std::size_t indent_;
  std::size_t depth_ = 0;
  bool first_ = true;
};

}  // namespace

std::string to_json(const FaultTree& tree,
                    const std::optional<JsonSolution>& solution, int indent) {
  std::string out;
  // About 60 bytes per node plus its names, with room for indentation.
  out.reserve(tree.num_nodes() *
              (72 + 6 * static_cast<std::size_t>(std::max(indent, 0))));
  JsonPrinter p(out, indent);

  std::vector<bool> in_mpmcs;
  if (solution) {
    in_mpmcs.assign(tree.num_events(), false);
    for (const EventIndex e : solution->mpmcs.events()) in_mpmcs.at(e) = true;
  }

  p.open('{');
  p.key("tool");
  p.str("mpmcs4fta-cpp");
  p.key("top");
  p.str(tree.node(tree.top()).name);

  p.key("nodes");
  p.open('[');
  for (NodeIndex i = 0; i < tree.num_nodes(); ++i) {
    const Node& n = tree.node(i);
    p.item();
    p.open('{');
    p.key("id");
    p.str(n.name);
    p.key("type");
    p.str(node_type_name(n.type));
    if (n.type == NodeType::BasicEvent) {
      p.key("prob");
      p.num(n.probability);
      if (solution) {
        p.key("inMpmcs");
        p.boolean(in_mpmcs[n.event_index]);
      }
    }
    if (n.type == NodeType::Vote) {
      p.key("k");
      p.num(static_cast<std::uint64_t>(n.k));
    }
    if (!n.children.empty()) {
      p.key("children");
      p.open('[');
      for (NodeIndex c : n.children) {
        p.item();
        p.str(tree.node(c).name);
      }
      p.close(']');
    }
    p.close('}');
  }
  p.close(']');

  if (solution) {
    p.key("mpmcs");
    p.open('{');
    p.key("events");
    p.open('[');
    for (EventIndex e : solution->mpmcs.events()) {
      p.item();
      p.str(tree.event(e).name);
    }
    p.close(']');
    p.key("probability");
    p.num(solution->probability);
    p.key("logCost");
    p.num(solution->log_cost);
    p.key("solver");
    p.str(solution->solver);
    p.key("solveSeconds");
    p.num(solution->solve_seconds);
    p.close('}');
  }

  p.close('}');
  out += '\n';
  return out;
}

}  // namespace fta::ft
