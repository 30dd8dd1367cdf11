#include "format/galileo.hpp"

#include <cctype>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <unordered_set>
#include <vector>

#include "format/format.hpp"
#include "format/tree_builder.hpp"
#include "util/strings.hpp"

namespace fta::format {

namespace {

struct Token {
  std::string_view text;
  std::size_t at = 0;  ///< Byte offset of the first character.
  bool quoted = false;
};

/// std::isspace in the C locale, without the call.
bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// "KofN" / "K/N" vote operators (lower case); returns (k, n).
std::optional<std::pair<std::uint32_t, std::uint32_t>> parse_kofn(
    std::string_view token) {
  std::size_t pos = token.find("of");
  std::size_t skip = 2;
  if (pos == std::string_view::npos) {
    pos = token.find('/');
    skip = 1;
  }
  if (pos == std::string_view::npos || pos == 0 ||
      pos + skip >= token.size()) {
    return std::nullopt;
  }
  const auto digits = [](std::string_view s) -> std::optional<std::uint32_t> {
    std::uint64_t v = 0;
    for (const char c : s) {
      if (!std::isdigit(static_cast<unsigned char>(c))) return std::nullopt;
      v = v * 10 + static_cast<std::uint64_t>(c - '0');
      if (v > 0xffffffffull) return std::nullopt;
    }
    return static_cast<std::uint32_t>(v);
  };
  const auto k = digits(token.substr(0, pos));
  const auto n = digits(token.substr(pos + skip));
  if (!k || !n) return std::nullopt;
  return std::make_pair(*k, *n);
}

/// The dynamic-gate vocabulary of full Galileo; each is rejected with a
/// diagnostic naming the operator (static analysis only).
bool is_dynamic_gate(const std::string& op) {
  static const std::unordered_set<std::string> kDynamic = {
      "pand", "por", "seq",  "fdep", "spare",
      "wsp",  "csp", "hsp",  "pdep"};
  return kDynamic.count(op) > 0;
}

class GalileoReader {
 public:
  GalileoReader(std::string_view text, const GalileoOptions& opts)
      : text_(text), opts_(opts), b_(TreeFormat::Galileo, text) {}

  ft::FaultTree run() {
    // One pass: each ';'-terminated statement is scanned into views of
    // the document and resolved at once.
    const std::size_t n = text_.size();
    std::size_t i = 0;
    while (i < n) {
      const char c = text_[i];
      if (is_space(c)) {
        ++i;
      } else if (c == '#' || (c == '/' && i + 1 < n && text_[i + 1] == '/')) {
        while (i < n && text_[i] != '\n') ++i;
      } else if (c == '/' && i + 1 < n && text_[i + 1] == '*') {
        const std::size_t close = text_.find("*/", i + 2);
        if (close == std::string_view::npos) {
          b_.fail(i, "unterminated /* comment");
        }
        i = close + 2;
      } else if (c == ';') {
        if (!tokens_.empty()) statement();
        tokens_.clear();
        ++i;
      } else if (c == '"') {
        std::size_t j = i + 1;
        while (j < n && text_[j] != '"' && text_[j] != '\n') ++j;
        if (j >= n || text_[j] != '"') b_.fail(i, "unterminated quoted name");
        tokens_.push_back({text_.substr(i + 1, j - i - 1), i, true});
        i = j + 1;
      } else {
        std::size_t j = i;
        while (j < n) {
          const char d = text_[j];
          if (is_space(d) || d == ';' || d == '"') break;
          if (d == '/' && j + 1 < n &&
              (text_[j + 1] == '/' || text_[j + 1] == '*')) {
            break;
          }
          ++j;
        }
        tokens_.push_back({text_.substr(i, j - i), i, false});
        i = j;
      }
    }
    if (!tokens_.empty()) {
      b_.fail(tokens_.front().at, "statement not terminated by ';'");
    }
    if (!top_) b_.fail(0, "missing toplevel statement");
    if (!b_.is_gate(*top_) && !b_.is_event(*top_)) {
      b_.fail(top_at_, "toplevel '" + std::string(b_.name(*top_)) +
                           "' is never defined");
    }
    return b_.build(*top_, TreeBuilder::EventOrder::FirstMention);
  }

 private:
  double number(const Token& where, std::string_view value) const {
    const auto v = parse_number(value);
    if (!v) b_.fail(where.at, "bad numeric value '" + std::string(value) + "'");
    return *v;
  }

  void statement() {
    const auto& t = tokens_;
    const Token& head = t.front();
    if (!head.quoted && head.text == "toplevel") {
      if (t.size() != 2) b_.fail(head.at, "toplevel expects exactly one name");
      if (top_) b_.fail(head.at, "duplicate toplevel statement");
      top_ = b_.intern(t[1].text, t[1].at);
      top_at_ = head.at;
      return;
    }
    if (head.text.empty()) b_.fail(head.at, "empty name");
    // Basic-event statement: every remaining token is key=value.
    if (t.size() >= 2 && !t[1].quoted &&
        t[1].text.find('=') != std::string_view::npos) {
      event_statement();
      return;
    }
    // Gate statement: NAME OP child child ...
    if (t.size() >= 3) {
      gate_statement();
      return;
    }
    if (!head.quoted && is_dynamic_gate(util::to_lower(head.text))) {
      b_.fail(head.at, "dynamic gate statement '" + std::string(head.text) +
                           "' is not supported");
    }
    b_.fail(head.at, "unrecognised statement starting with '" +
                         std::string(head.text) + "'");
  }

  void event_statement() {
    const Token& head = tokens_.front();
    double probability = 0.0;
    bool have_value = false;
    for (std::size_t a = 1; a < tokens_.size(); ++a) {
      const Token& attr = tokens_[a];
      const std::size_t eq = attr.text.find('=');
      if (attr.quoted || eq == std::string_view::npos) {
        b_.fail(attr.at, "expected key=value attribute, got '" +
                             std::string(attr.text) + "'");
      }
      const std::string key = util::to_lower(attr.text.substr(0, eq));
      const std::string_view value = attr.text.substr(eq + 1);
      if (key == "prob") {
        probability = number(attr, value);
        have_value = true;
      } else if (key == "lambda") {
        const double rate = number(attr, value);
        if (rate < 0.0) b_.fail(attr.at, "lambda must be >= 0");
        probability = 1.0 - std::exp(-rate * opts_.mission_time);
        have_value = true;
      } else if (key == "dorm" || key == "cov" || key == "res" ||
                 key == "mean" || key == "stddev" || key == "shape" ||
                 key == "rate" || key == "scale") {
        // Distribution shape parameters of the full Galileo grammar;
        // meaningless for a static point-probability analysis.
        (void)number(attr, value);
      } else if (key == "repl") {
        if (number(attr, value) != 1.0) {
          b_.fail(attr.at, "replicated basic events (repl=" +
                               std::string(value) +
                               ") are not supported; expand replicas "
                               "explicitly");
        }
      } else {
        b_.fail(attr.at, "unknown basic-event attribute '" + key + "'");
      }
    }
    if (!have_value) {
      b_.fail(head.at, "basic event '" + std::string(head.text) +
                           "' needs prob= or lambda=");
    }
    const TreeBuilder::Id id = b_.intern(head.text, head.at);
    if (b_.is_event(id)) {
      b_.fail(head.at, "duplicate definition of basic event '" +
                           std::string(head.text) + "'");
    }
    if (b_.is_gate(id)) {
      b_.fail(head.at, "'" + std::string(head.text) +
                           "' is declared both as a gate and a basic event");
    }
    b_.event(id, probability, head.at);
  }

  void gate_statement() {
    const Token& head = tokens_[0];
    const Token& op_tok = tokens_[1];
    ft::NodeType type = ft::NodeType::Or;
    std::uint32_t k = 0;
    const std::string op = util::to_lower(op_tok.text);
    if (!op_tok.quoted && op == "and") {
      type = ft::NodeType::And;
    } else if (!op_tok.quoted && op == "or") {
      type = ft::NodeType::Or;
    } else if (!op_tok.quoted && is_dynamic_gate(op)) {
      b_.fail(op_tok.at,
              "dynamic gate '" + op +
                  "' is not supported: this analysis covers static fault "
                  "trees (and/or/k-of-n); model the static envelope or drop "
                  "the temporal ordering");
    } else if (auto kofn = !op_tok.quoted ? parse_kofn(op) : std::nullopt) {
      type = ft::NodeType::Vote;
      k = kofn->first;
      if (kofn->second != tokens_.size() - 2) {
        b_.fail(op_tok.at, "gate '" + std::string(head.text) + "': " +
                               std::string(op_tok.text) + " declares " +
                               std::to_string(kofn->second) + " inputs but " +
                               std::to_string(tokens_.size() - 2) +
                               " children follow");
      }
    } else {
      b_.fail(op_tok.at,
              "unknown gate operator '" + std::string(op_tok.text) + "'");
    }
    const TreeBuilder::Id id = b_.intern(head.text, head.at);
    children_.clear();
    for (std::size_t c = 2; c < tokens_.size(); ++c) {
      children_.push_back(b_.intern(tokens_[c].text, tokens_[c].at));
    }
    if (b_.is_gate(id)) {
      b_.fail(head.at,
              "duplicate gate definition '" + std::string(head.text) + "'");
    }
    if (b_.is_event(id)) {
      b_.fail(b_.declared_at(id),
              "'" + std::string(head.text) +
                  "' is declared both as a gate and a basic event");
    }
    b_.gate(id, type, k, children_, head.at);
  }

  std::string_view text_;
  const GalileoOptions& opts_;
  TreeBuilder b_;
  std::vector<Token> tokens_;
  std::vector<TreeBuilder::Id> children_;
  std::optional<TreeBuilder::Id> top_;
  std::size_t top_at_ = 0;
};

}  // namespace

ft::FaultTree parse_galileo(const std::string& text,
                            const GalileoOptions& opts) {
  return GalileoReader(text, opts).run();
}

void check_galileo_names(const ft::FaultTree& tree) {
  for (ft::NodeIndex i = 0; i < tree.num_nodes(); ++i) {
    const std::string& name = tree.node(i).name;
    if (name.find_first_of("\"\n") != std::string::npos) {
      throw std::invalid_argument(
          "node '" + util::json_escape(name) +
          "' holds a double quote or a line feed, which Galileo text cannot "
          "write");
    }
  }
}

std::string write_galileo(const ft::FaultTree& tree) {
  check_galileo_names(tree);
  std::ostringstream os;
  auto quoted = [](const std::string& name) { return '"' + name + '"'; };
  os << "toplevel " << quoted(tree.node(tree.top()).name) << ";\n";
  // Basic events first, in EventIndex order: the parser assigns indices
  // by first appearance, so this keeps EventIndex stable across
  // serialize/parse round-trips.
  for (ft::EventIndex e = 0; e < tree.num_events(); ++e) {
    const ft::Node& n = tree.event(e);
    os << quoted(n.name) << " prob=" << format_probability(n.probability)
       << ";\n";
  }
  for (const ft::NodeIndex id : tree.gates_top_down()) {
    const ft::Node& n = tree.node(id);
    os << quoted(n.name) << ' ';
    if (n.type == ft::NodeType::Vote) {
      os << n.k << "of" << n.children.size();
    } else {
      os << ft::node_type_name(n.type);
    }
    for (const ft::NodeIndex c : n.children) {
      os << ' ' << quoted(tree.node(c).name);
    }
    os << ";\n";
  }
  return os.str();
}

}  // namespace fta::format
