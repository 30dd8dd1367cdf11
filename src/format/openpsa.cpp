#include "format/openpsa.hpp"

#include <cctype>
#include <sstream>
#include <vector>

#include "format/format.hpp"
#include "format/tree_builder.hpp"

namespace fta::format {

namespace {

constexpr std::size_t kMaxDepth = 64;

/// std::isspace in the C locale, without the call.
bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

bool is_name_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '-' ||
         c == '_' || c == '.' || c == ':';
}

std::string_view trim_right(std::string_view s) {
  while (!s.empty() && is_space(s.back())) s.remove_suffix(1);
  return s;
}

/// A decimal count as std::stoul reads it (leading spaces, '+'), with
/// nothing but spaces after it and no more than 2^32 - 1.
std::optional<std::uint32_t> parse_count(std::string_view s) {
  std::size_t i = 0;
  while (i < s.size() && is_space(s[i])) ++i;
  if (i < s.size() && s[i] == '+') ++i;
  s = trim_right(s.substr(i));
  if (s.empty()) return std::nullopt;
  std::uint64_t v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return std::nullopt;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
    if (v > 0xffffffffull) return std::nullopt;
  }
  return static_cast<std::uint32_t>(v);
}

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out += c;
    }
  }
  return out;
}

class OpenPsaReader {
 public:
  explicit OpenPsaReader(std::string_view text)
      : text_(text), b_(TreeFormat::OpenPsa, text) {}

  ft::FaultTree run() {
    skip_misc();
    if (pos_ >= text_.size() || text_[pos_] != '<') fail("expected '<'");
    start_tag();
    while (!stack_.empty()) content();
    skip_misc();
    if (pos_ != text_.size()) fail("trailing content after root element");
    if (!fault_tree_) b_.fail(root_at_, "missing <define-fault-tree>");
    if (!top_) b_.fail(*fault_tree_, "fault tree defines no gates");
    return b_.build(*top_, TreeBuilder::EventOrder::DeclaredThenReferenced);
  }

 private:
  /// What an open element means to the MEF mapping.
  enum class Role : std::uint8_t {
    Ignored,      ///< Checked as XML only.
    Root,         ///< <opsa-mef>
    FaultTree,    ///< The first <define-fault-tree>.
    DefineGate,   ///< A <define-gate> of it.
    Connective,   ///< <and>/<or>/<atleast>, named or anonymous.
    ModelData,    ///< The first <model-data>.
    DefineEvent,  ///< A <define-basic-event> of it.
  };

  struct Frame {
    std::string_view tag;
    std::size_t at = 0;  ///< Offset of the opening '<'.
    Role role = Role::Ignored;
    TreeBuilder::Id id = 0;
    ft::NodeType type = ft::NodeType::Or;
    std::uint32_t k = 0;
    std::uint32_t elements = 0;   ///< Child elements seen.
    std::uint32_t anonymous = 0;  ///< Nested connectives named so far.
    std::size_t first_child = 0;  ///< Into children_.
    bool has_value = false;  ///< A <define-basic-event> has its <float>.
  };

  struct Attr {
    std::string_view key;
    std::string_view raw;  ///< Between the quotes, entities unresolved.
  };

  [[noreturn]] void fail(const std::string& message) const {
    b_.fail(pos_, message);
  }

  bool at(std::string_view token) const {
    return text_.compare(pos_, token.size(), token) == 0;
  }

  void skip_ws() {
    while (pos_ < text_.size() && is_space(text_[pos_])) ++pos_;
  }

  /// Past the end of the comment whose "<!--" was just consumed.
  void skip_comment() {
    const std::size_t end = text_.find("-->", pos_);
    if (end == std::string_view::npos) fail("unterminated comment");
    pos_ = end + 3;
  }

  /// Whitespace, comments, and <?...?> declarations around the root.
  void skip_misc() {
    while (true) {
      skip_ws();
      if (at("<!--")) {
        pos_ += 4;
        skip_comment();
      } else if (at("<?")) {
        const std::size_t end = text_.find("?>", pos_);
        if (end == std::string_view::npos) fail("unterminated declaration");
        pos_ = end + 2;
      } else {
        return;
      }
    }
  }

  std::string_view name() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() && is_name_char(text_[pos_])) ++pos_;
    if (pos_ == start) fail("expected a name");
    return text_.substr(start, pos_ - start);
  }

  /// Reads the start tag at pos_ ('<'), opens its element and, if it is
  /// empty, closes it again.
  void start_tag() {
    const std::size_t open = pos_;
    if (stack_.size() >= kMaxDepth) {
      b_.fail(open, "elements nest deeper than " + std::to_string(kMaxDepth) +
                        " levels");
    }
    ++pos_;
    const std::string_view tag = name();
    attrs_.clear();
    bool empty = false;
    while (true) {
      skip_ws();
      if (at("/>")) {
        pos_ += 2;
        empty = true;
        break;
      }
      if (at(">")) {
        ++pos_;
        break;
      }
      const std::string_view key = name();
      skip_ws();
      if (!at("=")) fail("expected '=' in attribute");
      ++pos_;
      skip_ws();
      if (pos_ >= text_.size()) fail("unexpected end of document");
      const char quote = text_[pos_++];
      if (quote != '"' && quote != '\'') {
        fail("expected quoted attribute value");
      }
      const std::size_t close = text_.find(quote, pos_);
      if (close == std::string_view::npos) {
        pos_ = text_.size();
        fail("unexpected end of document");
      }
      const std::string_view raw = text_.substr(pos_, close - pos_);
      pos_ = close + 1;
      for (const Attr& a : attrs_) {
        if (a.key == key) {
          fail("duplicate attribute '" + std::string(key) + "'");
        }
      }
      attrs_.push_back({key, raw});
    }
    open_element(tag, open);
    if (empty) close_element();
  }

  /// Character data, comments, child elements, or the closing tag.
  void content() {
    if (at("<!--")) {
      pos_ += 4;
      skip_comment();
    } else if (at("</")) {
      pos_ += 2;
      const std::string_view closing = name();
      const std::string_view tag = stack_.back().tag;
      if (closing != tag) {
        fail("mismatched closing tag </" + std::string(closing) + "> for <" +
             std::string(tag) + ">");
      }
      skip_ws();
      if (!at(">")) fail("malformed closing tag");
      ++pos_;
      close_element();
    } else if (at("<")) {
      start_tag();
    } else {
      const std::size_t lt = text_.find('<', pos_);
      if (lt == std::string_view::npos) {
        pos_ = text_.size();
        fail("unterminated element <" + std::string(stack_.back().tag) + ">");
      }
      pos_ = lt;
    }
  }

  /// The attribute's value with entities resolved: a view into the
  /// document, or into the builder's storage when it had entities.
  std::string_view attr(const Frame& el, std::string_view key) {
    for (const Attr& a : attrs_) {
      if (a.key != key) continue;
      if (a.raw.find('&') == std::string_view::npos) return a.raw;
      std::string out;
      for (std::size_t i = 0; i < a.raw.size(); ++i) {
        const std::size_t semi = a.raw[i] == '&'
                                     ? a.raw.find(';', i)
                                     : std::string_view::npos;
        if (semi == std::string_view::npos) {
          out += a.raw[i];
          continue;
        }
        const std::string_view entity = a.raw.substr(i + 1, semi - i - 1);
        if (entity == "amp") out += '&';
        else if (entity == "lt") out += '<';
        else if (entity == "gt") out += '>';
        else if (entity == "quot") out += '"';
        else if (entity == "apos") out += '\'';
        else out += a.raw.substr(i, semi - i + 1);  // unknown: verbatim
        i = semi;
      }
      return b_.keep(out);
    }
    std::string message(1, '<');
    message.append(el.tag).append("> missing attribute '").append(key);
    b_.fail(el.at, message + "'");
  }

  void open_element(std::string_view tag, std::size_t open) {
    Frame f;
    f.tag = tag;
    f.at = open;
    if (stack_.empty()) {
      if (tag != "opsa-mef") {
        b_.fail(open, "root must be <opsa-mef>, got <" + std::string(tag) +
                          ">");
      }
      f.role = Role::Root;
      root_at_ = open;
      stack_.push_back(f);
      return;
    }
    Frame& parent = stack_.back();
    ++parent.elements;
    switch (parent.role) {
      case Role::Root:
        if (tag == "define-fault-tree" && !fault_tree_) {
          fault_tree_ = open;
          f.role = Role::FaultTree;
        } else if (tag == "model-data" && !model_data_) {
          model_data_ = true;
          f.role = Role::ModelData;
        }
        break;
      case Role::FaultTree:
        if (tag == "define-gate") {
          f.role = Role::DefineGate;
          f.id = b_.intern(attr(f, "name"), open);
          if (!top_) top_ = f.id;
        }
        break;
      case Role::DefineGate:
        if (parent.elements > 1) {
          b_.fail(parent.at, "<define-gate '" +
                                 std::string(b_.name(parent.id)) +
                                 "'> needs exactly one connective");
        }
        f.id = parent.id;
        connective(f, tag);
        break;
      case Role::Connective:
        if (tag == "gate" || tag == "basic-event") {
          children_.push_back(b_.intern(attr(f, "name"), open));
        } else if (tag == "and" || tag == "or" || tag == "atleast") {
          const std::string sub = std::string(b_.name(parent.id)) + "#" +
                                  std::to_string(++parent.anonymous);
          f.id = b_.intern(b_.keep(sub), open);
          children_.push_back(f.id);
          connective(f, tag);
        } else {
          b_.fail(open, "operands must be <gate>, <basic-event> or a nested "
                        "connective, got <" + std::string(tag) + ">");
        }
        break;
      case Role::ModelData:
        if (tag == "define-basic-event") {
          f.role = Role::DefineEvent;
          f.id = b_.intern(attr(f, "name"), open);
        }
        break;
      case Role::DefineEvent:
        if (tag == "float" && !parent.has_value) {
          const auto p = parse_number(trim_right(attr(f, "value")));
          if (!p) b_.fail(open, "bad float value");
          if (b_.is_event(parent.id)) {
            b_.fail(parent.at, "duplicate basic event '" +
                                   std::string(b_.name(parent.id)) + "'");
          }
          parent.has_value = true;
          b_.event(parent.id, *p, open);
        }
        break;
      case Role::Ignored:
        break;
    }
    stack_.push_back(f);
  }

  void connective(Frame& f, std::string_view tag) {
    f.role = Role::Connective;
    f.first_child = children_.size();
    if (tag == "and") {
      f.type = ft::NodeType::And;
    } else if (tag == "or") {
      f.type = ft::NodeType::Or;
    } else if (tag == "atleast") {
      f.type = ft::NodeType::Vote;
      const auto k = parse_count(attr(f, "min"));
      if (!k) b_.fail(f.at, "bad atleast min");
      f.k = *k;
    } else {
      b_.fail(f.at, "unsupported connective <" + std::string(tag) + ">");
    }
  }

  void close_element() {
    const Frame f = stack_.back();
    stack_.pop_back();
    const auto name = [&] { return std::string(b_.name(f.id)); };
    switch (f.role) {
      case Role::DefineGate:
        if (f.elements == 0) {
          b_.fail(f.at, "<define-gate '" + name() +
                            "'> needs exactly one connective");
        }
        break;
      case Role::Connective: {
        if (b_.is_gate(f.id)) {
          b_.fail(f.at, "duplicate gate '" + name() + "'");
        }
        const std::span<const TreeBuilder::Id> kids(
            children_.data() + f.first_child,
            children_.size() - f.first_child);
        b_.gate(f.id, f.type, f.k, kids, f.at);
        children_.resize(f.first_child);
        break;
      }
      case Role::DefineEvent:
        if (!f.has_value) {
          b_.fail(f.at, "<define-basic-event '" + name() +
                            "'> needs a <float value=.../>");
        }
        break;
      case Role::Root:
      case Role::FaultTree:
      case Role::ModelData:
      case Role::Ignored:
        break;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  TreeBuilder b_;
  std::vector<Frame> stack_;
  std::vector<Attr> attrs_;
  std::vector<TreeBuilder::Id> children_;
  std::size_t root_at_ = 0;
  std::optional<std::size_t> fault_tree_;  ///< Its offset, once seen.
  bool model_data_ = false;
  std::optional<TreeBuilder::Id> top_;
};

}  // namespace

ft::FaultTree parse_open_psa(const std::string& text) {
  return OpenPsaReader(text).run();
}

std::string to_open_psa(const ft::FaultTree& tree,
                        const std::string& tree_name) {
  tree.validate();
  std::ostringstream os;
  os << "<?xml version=\"1.0\"?>\n<opsa-mef>\n";
  os << "  <define-fault-tree name=\"" << escape(tree_name) << "\">\n";
  // Top gate first (reader convention), then the rest in DFS order.
  for (const ft::NodeIndex id : tree.gates_top_down()) {
    const ft::Node& n = tree.node(id);
    os << "    <define-gate name=\"" << escape(n.name) << "\">\n";
    if (n.type == ft::NodeType::Vote) {
      os << "      <atleast min=\"" << n.k << "\">\n";
    } else {
      os << "      <" << ft::node_type_name(n.type) << ">\n";
    }
    for (const ft::NodeIndex c : n.children) {
      const ft::Node& child = tree.node(c);
      const char* tag =
          child.type == ft::NodeType::BasicEvent ? "basic-event" : "gate";
      os << "        <" << tag << " name=\"" << escape(child.name) << "\"/>\n";
    }
    os << (n.type == ft::NodeType::Vote
               ? "      </atleast>\n"
               : std::string("      </") + ft::node_type_name(n.type) +
                     ">\n");
    os << "    </define-gate>\n";
  }
  os << "  </define-fault-tree>\n";
  os << "  <model-data>\n";
  for (ft::EventIndex e = 0; e < tree.num_events(); ++e) {
    const ft::Node& n = tree.event(e);
    os << "    <define-basic-event name=\"" << escape(n.name)
       << "\">\n      <float value=\"" << format_probability(n.probability)
       << "\"/>\n    </define-basic-event>\n";
  }
  os << "  </model-data>\n</opsa-mef>\n";
  return os.str();
}

}  // namespace fta::format
