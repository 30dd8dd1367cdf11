#include "format/format.hpp"

#include <cstdio>
#include <sstream>

#include "format/galileo.hpp"
#include "format/openpsa.hpp"
#include "format/tree_builder.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace fta::format {

namespace {

std::string lower_ext(const std::string& filename) {
  const std::size_t dot = filename.find_last_of('.');
  if (dot == std::string::npos) return "";
  return util::to_lower(filename.substr(dot));
}

/// Reads the ft::to_json tree document in one pass over util::JsonReader:
/// {"top": ..., "nodes": [{"id", "type", "prob", "k", "children"}]}.
/// Members it does not know are skipped; of a repeated member the first
/// counts. Schema defects are positioned at the offending node, or at the
/// member or child that is wrong.
class JsonTreeReader {
 public:
  explicit JsonTreeReader(std::string_view text)
      : r_(text), b_(TreeFormat::Json, text) {}

  ft::FaultTree run() {
    try {
      return read();
    } catch (const util::JsonError& e) {
      b_.fail(e.offset(), e.what());
    }
  }

 private:
  /// A member value (or child) as the schema sees it: absent, null, a
  /// string, a number, or of another type.
  struct Member {
    enum class Kind : std::uint8_t { Absent, Null, String, Number, Other };
    Kind kind = Kind::Absent;
    std::size_t at = 0;
    std::string_view text;
    double number = 0.0;
  };

  /// A string that outlives the reader's scratch buffer.
  std::string_view stable(std::string_view s) {
    return s.data() == scratch_.data() ? b_.keep(s) : s;
  }

  /// Reads one member value into `m`, unless an earlier member of the
  /// same name already did.
  void member(Member& m, std::size_t depth) {
    if (m.kind != Member::Kind::Absent) {
      r_.skip(depth);
      return;
    }
    const char c = r_.value(depth);
    m.at = r_.offset();
    if (c == '"') {
      m.kind = Member::Kind::String;
      m.text = stable(r_.string(scratch_));
    } else if (c == 'n') {
      r_.literal("null");
      m.kind = Member::Kind::Null;
    } else if (c == '-' || (c >= '0' && c <= '9')) {
      m.kind = Member::Kind::Number;
      m.number = r_.number();
    } else {
      m.kind = Member::Kind::Other;
      r_.skip(depth);
    }
  }

  std::string_view string_member(const Member& m, const char* key) const {
    if (m.kind == Member::Kind::Other || m.kind == Member::Kind::Number) {
      b_.fail(m.at, "member \"" + std::string(key) + "\" must be a string");
    }
    return m.kind == Member::Kind::String ? m.text : std::string_view();
  }

  double number_member(const Member& m, const char* key,
                       double fallback) const {
    if (m.kind == Member::Kind::Other || m.kind == Member::Kind::String) {
      b_.fail(m.at, "member \"" + std::string(key) + "\" must be a number");
    }
    return m.kind == Member::Kind::Number ? m.number : fallback;
  }

  ft::FaultTree read() {
    const char first = r_.value(0);
    const std::size_t root_at = r_.offset();
    if (first != '{') b_.fail(root_at, "tree document must be a JSON object");
    Member top;
    bool seen_nodes = false, have_nodes = false;
    std::size_t nodes_at = root_at;
    if (r_.open()) {
      do {
        const std::string_view key = r_.key(key_scratch_);
        if (key == "top") {
          member(top, 1);
        } else if (key == "nodes" && !seen_nodes) {
          seen_nodes = true;
          have_nodes = r_.value(1) == '[';
          if (have_nodes) {
            nodes();
          } else {
            nodes_at = r_.offset();
            r_.skip(1);
          }
        } else {
          r_.skip(1);
        }
      } while (r_.next('}'));
    }
    r_.finish();

    const std::string_view top_name = string_member(top, "top");
    if (top_name.empty()) {
      b_.fail(root_at, "missing required member \"top\"");
    }
    if (!have_nodes) b_.fail(nodes_at, "missing required array \"nodes\"");
    const TreeBuilder::Id top_id = b_.intern(top_name, top.at);
    if (!b_.is_event(top_id) && !b_.is_gate(top_id)) {
      b_.fail(top.at,
              "top '" + std::string(top_name) + "' is not a defined node");
    }
    return b_.build(top_id, TreeBuilder::EventOrder::DeclaredOnly);
  }

  void nodes() {
    if (!r_.open()) return;
    do {
      const char c = r_.value(2);
      const std::size_t at = r_.offset();
      if (c != '{') b_.fail(at, "every entry of \"nodes\" must be an object");
      node(at);
    } while (r_.next(']'));
  }

  void node(std::size_t at) {
    Member id, type, prob, k;
    bool have_children = false, children_array = false;
    children_.clear();
    if (r_.open()) {
      do {
        const std::string_view key = r_.key(key_scratch_);
        if (key == "id") {
          member(id, 3);
        } else if (key == "type") {
          member(type, 3);
        } else if (key == "prob") {
          member(prob, 3);
        } else if (key == "k") {
          member(k, 3);
        } else if (key == "children" && !have_children) {
          have_children = true;
          children_array = r_.value(3) == '[';
          if (!children_array) {
            r_.skip(3);
          } else if (r_.open()) {
            do {
              member(children_.emplace_back(), 4);
            } while (r_.next(']'));
          }
        } else {
          r_.skip(3);
        }
      } while (r_.next('}'));
    }

    const std::string_view name = string_member(id, "id");
    if (name.empty()) b_.fail(at, "node without an \"id\"");
    const TreeBuilder::Id node = b_.intern(name, at);
    if (b_.is_event(node) || b_.is_gate(node)) {
      b_.fail(at, "duplicate node id '" + std::string(name) + "'");
    }
    const std::string_view kind = string_member(type, "type");
    if (kind == "event" || kind == "basic-event" || kind == "basic") {
      b_.event(node, number_member(prob, "prob", 0.0), at);
      return;
    }
    ft::NodeType gate = ft::NodeType::Or;
    std::uint32_t threshold = 0;
    if (kind == "and") {
      gate = ft::NodeType::And;
    } else if (kind == "or") {
      gate = ft::NodeType::Or;
    } else if (kind == "vote" || kind == "atleast") {
      gate = ft::NodeType::Vote;
      const double v = number_member(k, "k", 0.0);
      if (!(v >= 1.0 && v <= 4294967295.0) ||
          v != static_cast<double>(static_cast<std::uint32_t>(v))) {
        b_.fail(at, "gate '" + std::string(name) +
                        "': bad vote threshold \"k\"");
      }
      threshold = static_cast<std::uint32_t>(v);
    } else {
      b_.fail(at, "node '" + std::string(name) + "': unknown type '" +
                      std::string(kind) + "'");
    }
    if (!children_array) {
      b_.fail(at, "gate '" + std::string(name) +
                      "' needs a \"children\" array");
    }
    ids_.clear();
    for (const Member& c : children_) {
      if (c.kind != Member::Kind::String) {
        b_.fail(c.at, "gate '" + std::string(name) +
                          "': children must be node ids");
      }
      ids_.push_back(b_.intern(c.text, c.at));
    }
    b_.gate(node, gate, threshold, ids_, at);
  }

  util::JsonReader r_;
  TreeBuilder b_;
  std::string scratch_, key_scratch_;
  std::vector<Member> children_;
  std::vector<TreeBuilder::Id> ids_;
};

}  // namespace

const char* format_name(TreeFormat f) noexcept {
  switch (f) {
    case TreeFormat::Auto: return "auto";
    case TreeFormat::Json: return "json";
    case TreeFormat::Galileo: return "galileo";
    case TreeFormat::OpenPsa: return "openpsa";
  }
  return "?";
}

bool parse_format_name(const std::string& name, TreeFormat* out) noexcept {
  const std::string n = util::to_lower(name);
  if (n == "auto") *out = TreeFormat::Auto;
  else if (n == "json") *out = TreeFormat::Json;
  else if (n == "galileo" || n == "dft" || n == "ft") *out = TreeFormat::Galileo;
  else if (n == "openpsa" || n == "open-psa" || n == "mef" || n == "opsa")
    *out = TreeFormat::OpenPsa;
  else return false;
  return true;
}

ParseError::ParseError(TreeFormat format, std::size_t line,
                       std::size_t column, const std::string& detail)
    : std::runtime_error(
          std::string(format_name(format)) + ": line " +
          std::to_string(line) + ", column " + std::to_string(column) +
          ": " + detail),
      format_(format),
      line_(line),
      column_(column),
      detail_(detail) {}

TreeFormat detect_format(const std::string& filename,
                         const std::string& content) noexcept {
  const std::string ext = lower_ext(filename);
  if (ext == ".dft" || ext == ".ft") return TreeFormat::Galileo;
  if (ext == ".xml" || ext == ".opsa" || ext == ".mef") {
    return TreeFormat::OpenPsa;
  }
  if (ext == ".json") return TreeFormat::Json;
  const std::size_t first = content.find_first_not_of(" \t\r\n");
  if (first != std::string::npos) {
    if (content[first] == '<') return TreeFormat::OpenPsa;
    if (content[first] == '{') return TreeFormat::Json;
  }
  return TreeFormat::Galileo;
}

ft::FaultTree parse_tree(const std::string& text, const ParseOptions& opts,
                         const std::string& filename) {
  TreeFormat format = opts.format;
  if (format == TreeFormat::Auto) format = detect_format(filename, text);
  switch (format) {
    case TreeFormat::Json:
      return JsonTreeReader(text).run();
    case TreeFormat::OpenPsa:
      return parse_open_psa(text);
    case TreeFormat::Galileo: {
      GalileoOptions gopts;
      gopts.mission_time = opts.mission_time;
      return parse_galileo(text, gopts);
    }
    case TreeFormat::Auto:
      break;
  }
  throw ParseError(TreeFormat::Auto, 0, 0, "unresolvable format");
}

std::string to_galileo(const ft::FaultTree& tree) {
  return write_galileo(tree);
}

std::string to_json(const ft::FaultTree& tree) {
  std::ostringstream os;
  os << "{\n  \"tool\": \"mpmcs4fta-cpp\",\n  \"top\": \""
     << util::json_escape(tree.node(tree.top()).name)
     << "\",\n  \"nodes\": [";
  for (ft::NodeIndex i = 0; i < tree.num_nodes(); ++i) {
    const ft::Node& n = tree.node(i);
    os << (i == 0 ? "\n" : ",\n") << "    {\"id\": \""
       << util::json_escape(n.name) << "\", \"type\": \""
       << ft::node_type_name(n.type) << '"';
    if (n.type == ft::NodeType::BasicEvent) {
      os << ", \"prob\": " << format_probability(n.probability);
    }
    if (n.type == ft::NodeType::Vote) os << ", \"k\": " << n.k;
    if (!n.children.empty()) {
      os << ", \"children\": [";
      for (std::size_t c = 0; c < n.children.size(); ++c) {
        if (c > 0) os << ", ";
        os << '"' << util::json_escape(tree.node(n.children[c]).name) << '"';
      }
      os << ']';
    }
    os << '}';
  }
  os << "\n  ]\n}\n";
  return os.str();
}

std::string serialize_tree(const ft::FaultTree& tree, TreeFormat format) {
  switch (format) {
    case TreeFormat::Json: return to_json(tree);
    case TreeFormat::Galileo: return to_galileo(tree);
    case TreeFormat::OpenPsa: return format::to_open_psa(tree);
    case TreeFormat::Auto: break;
  }
  throw std::invalid_argument("serialize_tree: format must be concrete");
}

std::string format_probability(double p) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", p);
  return buf;
}

}  // namespace fta::format
