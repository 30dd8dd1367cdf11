#include "ft/json_writer.hpp"

#include <sstream>
#include <unordered_set>

#include "util/strings.hpp"

namespace fta::ft {

namespace {

class JsonPrinter {
 public:
  JsonPrinter(std::ostream& os, int indent) : os_(os), indent_(indent) {}

  void open(char bracket) {
    os_ << bracket;
    ++depth_;
    first_ = true;
  }
  void close(char bracket) {
    --depth_;
    newline();
    os_ << bracket;
    first_ = false;
  }
  void key(const std::string& k) {
    comma();
    newline();
    os_ << '"' << util::json_escape(k) << "\": ";
    first_ = true;  // value follows without a comma
  }
  void item() {
    comma();
    newline();
  }
  void raw(const std::string& v) {
    os_ << v;
    first_ = false;
  }
  void str(const std::string& v) { raw('"' + util::json_escape(v) + '"'); }
  void num(double v) { raw(util::json_number(v)); }
  void num(std::uint64_t v) { raw(std::to_string(v)); }
  void boolean(bool v) { raw(v ? "true" : "false"); }

 private:
  void comma() {
    if (!first_) os_ << ',';
    first_ = false;
  }
  void newline() {
    if (indent_ <= 0) return;
    os_ << '\n' << std::string(static_cast<std::size_t>(depth_ * indent_), ' ');
  }

  std::ostream& os_;
  int indent_;
  int depth_ = 0;
  bool first_ = true;
};

}  // namespace

std::string to_json(const FaultTree& tree,
                    const std::optional<JsonSolution>& solution, int indent) {
  std::ostringstream os;
  JsonPrinter p(os, indent);

  std::unordered_set<EventIndex> in_mpmcs;
  if (solution) {
    in_mpmcs.insert(solution->mpmcs.events().begin(),
                    solution->mpmcs.events().end());
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
        p.boolean(in_mpmcs.count(n.event_index) > 0);
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
  os << '\n';
  return os.str();
}

}  // namespace fta::ft
