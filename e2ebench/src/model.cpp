#include "model.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace bench {

std::uint32_t Model::add_event(const std::string& name, double p) {
  Node n;
  n.name = name;
  n.kind = Kind::Event;
  n.p = p;
  const auto id = static_cast<std::uint32_t>(nodes.size());
  if (!by_name_.emplace(name, id).second) {
    throw std::runtime_error("duplicate node name '" + name + "'");
  }
  nodes.push_back(std::move(n));
  return id;
}

std::uint32_t Model::add_gate(const std::string& name, Kind kind,
                              std::vector<std::uint32_t> kids,
                              std::uint32_t k) {
  Node n;
  n.name = name;
  n.kind = kind;
  n.k = k;
  n.kids = std::move(kids);
  const auto id = static_cast<std::uint32_t>(nodes.size());
  if (!by_name_.emplace(name, id).second) {
    throw std::runtime_error("duplicate node name '" + name + "'");
  }
  nodes.push_back(std::move(n));
  return id;
}

std::int64_t Model::find(const std::string& name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? -1 : static_cast<std::int64_t>(it->second);
}

std::vector<std::uint32_t> Model::topo_order() const {
  // Iterative post-order: deep models must not recurse.
  std::vector<std::uint32_t> order;
  std::vector<std::uint8_t> state(nodes.size(), 0);  // 0 new, 1 open, 2 done
  std::vector<std::pair<std::uint32_t, std::size_t>> stack{{top, 0}};
  state[top] = 1;
  while (!stack.empty()) {
    auto& [id, next] = stack.back();
    const Node& n = nodes[id];
    if (next < n.kids.size()) {
      const std::uint32_t c = n.kids[next++];
      if (state[c] == 0) {
        state[c] = 1;
        stack.push_back({c, 0});
      } else if (state[c] == 1) {
        throw std::runtime_error("cycle through '" + nodes[c].name + "'");
      }
      continue;
    }
    state[id] = 2;
    order.push_back(id);
    stack.pop_back();
  }
  return order;
}

bool Model::tree_shaped() const {
  std::vector<std::uint32_t> parents(nodes.size(), 0);
  for (const std::uint32_t id : topo_order()) {
    for (const std::uint32_t c : nodes[id].kids) {
      if (++parents[c] > 1) return false;
    }
  }
  return true;
}

std::vector<std::uint32_t> Model::events() const {
  std::vector<std::uint32_t> out;
  for (const std::uint32_t id : topo_order()) {
    if (nodes[id].kind == Kind::Event) out.push_back(id);
  }
  return out;
}

double uniform(Rng& rng, double lo, double hi) {
  return lo + (hi - lo) * std::generate_canonical<double, 53>(rng);
}

double log_uniform(Rng& rng, double lo, double hi) {
  return std::exp(uniform(rng, std::log(lo), std::log(hi)));
}

namespace {

std::uint32_t pick(Rng& rng, std::uint32_t lo, std::uint32_t hi) {
  return lo + static_cast<std::uint32_t>(rng() % (hi - lo + 1));
}

Kind random_gate_kind(Rng& rng, std::size_t fan_in, double vote_share,
                      std::uint32_t* k) {
  if (fan_in >= 3 && uniform(rng, 0, 1) < vote_share) {
    *k = pick(rng, 2, static_cast<std::uint32_t>(fan_in) - 1);
    return Kind::Vote;
  }
  return uniform(rng, 0, 1) < 0.4 ? Kind::And : Kind::Or;
}

}  // namespace

Model random_dag(Rng& rng, std::uint32_t events, double sharing,
                 double vote_share) {
  Model m;
  std::vector<std::uint32_t> pool;
  for (std::uint32_t i = 0; i < std::max(events, 2u); ++i) {
    pool.push_back(m.add_event("e" + std::to_string(i),
                               log_uniform(rng, 1e-4, 0.2)));
  }
  std::shuffle(pool.begin(), pool.end(), rng);
  std::vector<std::uint32_t> consumed;  // nodes that already have a parent
  std::size_t head = 0;
  std::uint32_t gates = 0;
  while (pool.size() - head > 1) {
    const std::size_t fresh =
        std::min<std::size_t>(pick(rng, 2, 4), pool.size() - head);
    std::vector<std::uint32_t> kids(pool.begin() + head,
                                    pool.begin() + head + fresh);
    head += fresh;
    if (!consumed.empty()) {
      for (std::size_t i = 0; i < fresh; ++i) {
        if (uniform(rng, 0, 1) >= sharing) continue;
        const std::uint32_t c = consumed[rng() % consumed.size()];
        if (std::find(kids.begin(), kids.end(), c) == kids.end()) {
          kids.push_back(c);
        }
      }
    }
    consumed.insert(consumed.end(), kids.begin(), kids.end());
    std::uint32_t k = 0;
    const Kind kind = random_gate_kind(rng, kids.size(), vote_share, &k);
    pool.push_back(
        m.add_gate("g" + std::to_string(gates++), kind, std::move(kids), k));
  }
  m.top = pool.back();
  return m;
}

Model ladder(Rng& rng, std::uint32_t events, bool and_top, bool nested) {
  Model m;
  std::vector<std::uint32_t> subsystems;
  std::uint32_t used = 0;
  do {
    const std::uint32_t s = static_cast<std::uint32_t>(subsystems.size());
    const std::uint32_t members = pick(rng, 3, 4);
    std::vector<std::uint32_t> kids;
    for (std::uint32_t j = 0; j < members; ++j) {
      const std::string base = "m" + std::to_string(s) + "_" + std::to_string(j);
      if (nested) {
        const std::uint32_t a = m.add_event(base + "a", log_uniform(rng, 1e-3, 0.1));
        const std::uint32_t b = m.add_event(base + "b", log_uniform(rng, 1e-3, 0.1));
        kids.push_back(m.add_gate(base, Kind::Or, {a, b}));
        used += 2;
      } else {
        kids.push_back(m.add_event(base, log_uniform(rng, 1e-3, 0.1)));
        used += 1;
      }
    }
    subsystems.push_back(m.add_gate("S" + std::to_string(s), Kind::Vote,
                                    std::move(kids), members - 1));
  } while (used < events);
  m.top = m.add_gate("TOP", and_top ? Kind::And : Kind::Or,
                     std::move(subsystems));
  return m;
}

Model vote_of_votes(std::uint32_t n) {
  Model m;
  std::vector<std::uint32_t> subs;
  for (std::uint32_t i = 0; i < n; ++i) {
    std::vector<std::uint32_t> kids;
    for (std::uint32_t j = 0; j < 3; ++j) {
      // Golden-ratio spread over [0.01, 0.2]: fixed, seed-independent.
      const double frac = std::fmod((i * 3 + j + 1) * 0.6180339887498949, 1.0);
      kids.push_back(m.add_event(
          "e" + std::to_string(i) + "_" + std::to_string(j), 0.01 + 0.19 * frac));
    }
    subs.push_back(m.add_gate("S" + std::to_string(i), Kind::Vote,
                              std::move(kids), 2));
  }
  m.top = m.add_gate("TOP", Kind::Vote, std::move(subs), 2);
  return m;
}

// --- writers -----------------------------------------------------------------

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

const char* format_ext(Format f) {
  switch (f) {
    case Format::Galileo: return ".dft";
    case Format::OpenPsa: return ".xml";
    case Format::Json: return ".json";
  }
  return "";
}

namespace {

std::string quoted(const std::string& s) { return "\"" + s + "\""; }

std::string gate_op(const Node& n) {
  switch (n.kind) {
    case Kind::And: return "and";
    case Kind::Or: return "or";
    case Kind::Vote:
      return std::to_string(n.k) + "of" + std::to_string(n.kids.size());
    case Kind::Event: break;
  }
  throw std::logic_error("not a gate");
}

/// Galileo-style statements for the subtree under `root`; the program's
/// Galileo reader and its native splice parser share this grammar.
std::string galileo_statements(const Model& m, std::uint32_t root) {
  std::vector<std::uint32_t> order;
  {
    std::vector<std::uint8_t> seen(m.nodes.size(), 0);
    std::vector<std::uint32_t> stack{root};
    seen[root] = 1;
    while (!stack.empty()) {
      const std::uint32_t id = stack.back();
      stack.pop_back();
      order.push_back(id);
      for (const std::uint32_t c : m.nodes[id].kids) {
        if (!seen[c]) {
          seen[c] = 1;
          stack.push_back(c);
        }
      }
    }
  }
  std::string out = "toplevel " + quoted(m.nodes[root].name) + ";\n";
  out.reserve(order.size() * 40);
  for (const std::uint32_t id : order) {
    const Node& n = m.nodes[id];
    if (n.kind == Kind::Event) continue;
    out += quoted(n.name) + " " + gate_op(n);
    for (const std::uint32_t c : n.kids) out += " " + quoted(m.nodes[c].name);
    out += ";\n";
  }
  for (const std::uint32_t id : order) {
    const Node& n = m.nodes[id];
    if (n.kind != Kind::Event) continue;
    out += quoted(n.name) + " prob=" + fmt_double(m.prob(id)) + ";\n";
  }
  return out;
}

}  // namespace

std::string write_galileo(const Model& m) { return galileo_statements(m, m.top); }

std::string write_native_subtree(const Model& m, std::uint32_t root) {
  return galileo_statements(m, root);
}

std::string write_open_psa(const Model& m) {
  const std::vector<std::uint32_t> order = m.topo_order();
  std::string out =
      "<?xml version=\"1.0\"?>\n<opsa-mef>\n"
      "<define-fault-tree name=\"bench\">\n";
  out.reserve(order.size() * 90);
  // The reader takes the first define-gate as the top: parents first.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const Node& n = m.nodes[*it];
    if (n.kind == Kind::Event) continue;
    out += "<define-gate name=\"" + n.name + "\">";
    switch (n.kind) {
      case Kind::And: out += "<and>"; break;
      case Kind::Or: out += "<or>"; break;
      default: out += "<atleast min=\"" + std::to_string(n.k) + "\">"; break;
    }
    for (const std::uint32_t c : n.kids) {
      const Node& child = m.nodes[c];
      out += child.kind == Kind::Event ? "<basic-event name=\"" : "<gate name=\"";
      out += child.name + "\"/>";
    }
    switch (n.kind) {
      case Kind::And: out += "</and>"; break;
      case Kind::Or: out += "</or>"; break;
      default: out += "</atleast>"; break;
    }
    out += "</define-gate>\n";
  }
  out += "</define-fault-tree>\n<model-data>\n";
  for (const std::uint32_t id : order) {
    if (m.nodes[id].kind != Kind::Event) continue;
    out += "<define-basic-event name=\"" + m.nodes[id].name +
           "\"><float value=\"" + fmt_double(m.prob(id)) +
           "\"/></define-basic-event>\n";
  }
  out += "</model-data>\n</opsa-mef>\n";
  return out;
}

std::string write_json(const Model& m) {
  const std::vector<std::uint32_t> order = m.topo_order();
  std::string out = "{\"top\": " + quoted(m.nodes[m.top].name) + ", \"nodes\": [";
  out.reserve(order.size() * 60);
  bool sep = false;
  for (const bool events : {true, false}) {
    for (const std::uint32_t id : order) {
      const Node& n = m.nodes[id];
      if ((n.kind == Kind::Event) != events) continue;
      out += sep ? ",\n" : "\n";
      sep = true;
      out += "{\"id\": " + quoted(n.name) + ", \"type\": ";
      if (n.kind == Kind::Event) {
        out += "\"event\", \"prob\": " + fmt_double(m.prob(id)) + "}";
        continue;
      }
      out += n.kind == Kind::And  ? "\"and\""
             : n.kind == Kind::Or ? "\"or\""
                                  : "\"vote\", \"k\": " + std::to_string(n.k);
      out += ", \"children\": [";
      for (std::size_t i = 0; i < n.kids.size(); ++i) {
        if (i) out += ", ";
        out += quoted(m.nodes[n.kids[i]].name);
      }
      out += "]}";
    }
  }
  out += "\n]}\n";
  return out;
}

std::string write_document(const Model& m, Format f) {
  switch (f) {
    case Format::Galileo: return write_galileo(m);
    case Format::OpenPsa: return write_open_psa(m);
    case Format::Json: return write_json(m);
  }
  return {};
}

// --- readers -----------------------------------------------------------------

namespace {

struct PendingGate {
  std::string name;
  Kind kind = Kind::Or;
  std::uint32_t k = 0;
  std::vector<std::string> kids;
};

/// Builds a model from gate declarations and event probabilities; children
/// that are neither gates nor declared events become p = 0 events.
Model assemble(const std::string& top, const std::vector<PendingGate>& gates,
               const std::vector<std::pair<std::string, double>>& events) {
  Model m;
  std::unordered_map<std::string, std::size_t> gate_at;
  for (std::size_t i = 0; i < gates.size(); ++i) gate_at[gates[i].name] = i;
  for (const auto& [name, p] : events) m.add_event(name, p);
  for (const PendingGate& g : gates) {
    for (const std::string& c : g.kids) {
      if (!gate_at.count(c) && m.find(c) < 0) m.add_event(c, 0.0);
    }
  }
  for (const PendingGate& g : gates) m.add_gate(g.name, g.kind, {}, g.k);
  for (const PendingGate& g : gates) {
    Node& n = m.nodes[static_cast<std::size_t>(m.find(g.name))];
    for (const std::string& c : g.kids) {
      n.kids.push_back(static_cast<std::uint32_t>(m.find(c)));
    }
  }
  const std::int64_t t = m.find(top);
  if (t < 0) throw std::runtime_error("undefined top '" + top + "'");
  m.top = static_cast<std::uint32_t>(t);
  return m;
}

}  // namespace

Model read_galileo(const std::string& text, double mission_time) {
  // Strip comments outside quotes, then split statements on ';'.
  std::vector<std::vector<std::string>> statements(1);
  std::string token;
  bool in_token = false;
  const auto flush = [&] {
    if (in_token) statements.back().push_back(token);
    token.clear();
    in_token = false;
  };
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '"') {
      const std::size_t end = text.find('"', i + 1);
      if (end == std::string::npos) throw std::runtime_error("open quote");
      token += text.substr(i + 1, end - i - 1);
      in_token = true;
      i = end;
    } else if (c == '/' && i + 1 < text.size() && text[i + 1] == '*') {
      flush();
      const std::size_t end = text.find("*/", i + 2);
      if (end == std::string::npos) throw std::runtime_error("open comment");
      i = end + 1;
    } else if (c == '#' || (c == '/' && i + 1 < text.size() && text[i + 1] == '/')) {
      flush();
      const std::size_t end = text.find('\n', i);
      i = end == std::string::npos ? text.size() : end;
    } else if (c == ';') {
      flush();
      statements.emplace_back();
    } else if (std::isspace(static_cast<unsigned char>(c))) {
      flush();
    } else {
      token += c;
      in_token = true;
    }
  }
  flush();

  std::string top;
  std::vector<PendingGate> gates;
  std::vector<std::pair<std::string, double>> events;
  for (const auto& t : statements) {
    if (t.empty()) continue;
    if (t[0] == "toplevel" && t.size() == 2) {
      top = t[1];
      continue;
    }
    if (t.size() >= 2 && t[1].find('=') == std::string::npos) {
      PendingGate g;
      g.name = t[0];
      const std::string& op = t[1];
      const std::size_t of = op.find("of");
      if (op == "and") {
        g.kind = Kind::And;
      } else if (op == "or") {
        g.kind = Kind::Or;
      } else if (of != std::string::npos && of > 0) {
        g.kind = Kind::Vote;
        g.k = static_cast<std::uint32_t>(std::stoul(op.substr(0, of)));
      } else {
        throw std::runtime_error("unknown gate operator '" + op + "'");
      }
      g.kids.assign(t.begin() + 2, t.end());
      gates.push_back(std::move(g));
      continue;
    }
    double p = 0.0;
    for (std::size_t i = 1; i < t.size(); ++i) {
      const std::size_t eq = t[i].find('=');
      const std::string key = t[i].substr(0, eq);
      if (key == "prob") p = std::stod(t[i].substr(eq + 1));
      if (key == "lambda") {
        p = 1.0 - std::exp(-std::stod(t[i].substr(eq + 1)) * mission_time);
      }
    }
    events.emplace_back(t[0], p);
  }
  return assemble(top, gates, events);
}

Model read_open_psa(const std::string& text) {
  std::string top;
  std::vector<PendingGate> gates;
  std::vector<std::pair<std::string, double>> events;
  std::vector<std::size_t> open;  // connective frames (indices into gates)
  std::string define_gate, define_event;
  std::size_t anonymous = 0;
  std::size_t pos = 0;
  const auto attr = [](const std::string& tag, const std::string& key) {
    const std::size_t at = tag.find(" " + key + "=\"");
    if (at == std::string::npos) return std::string();
    const std::size_t start = at + key.size() + 3;
    return tag.substr(start, tag.find('"', start) - start);
  };
  while ((pos = text.find('<', pos)) != std::string::npos) {
    if (text.compare(pos, 4, "<!--") == 0) {
      pos = text.find("-->", pos);
      if (pos == std::string::npos) break;
      continue;
    }
    const std::size_t end = text.find('>', pos);
    if (end == std::string::npos) throw std::runtime_error("open tag");
    std::string tag = text.substr(pos + 1, end - pos - 1);
    pos = end + 1;
    if (tag.empty() || tag[0] == '?') continue;
    const bool closing = tag[0] == '/';
    if (closing) tag.erase(0, 1);
    const std::string name = tag.substr(0, tag.find_first_of(" \t\n/"));
    if (name == "define-gate" && !closing) {
      define_gate = attr(tag, "name");
      if (top.empty()) top = define_gate;
    } else if (name == "define-basic-event" && !closing) {
      define_event = attr(tag, "name");
      events.emplace_back(define_event, 0.0);
    } else if (name == "float" && !define_event.empty()) {
      events.back().second = std::stod(attr(tag, "value"));
    } else if (name == "define-basic-event" && closing) {
      define_event.clear();
    } else if (name == "and" || name == "or" || name == "atleast") {
      if (closing) {
        open.pop_back();
        continue;
      }
      PendingGate g;
      g.kind = name == "and" ? Kind::And : name == "or" ? Kind::Or : Kind::Vote;
      if (g.kind == Kind::Vote) {
        g.k = static_cast<std::uint32_t>(std::stoul(attr(tag, "min")));
      }
      if (open.empty()) {
        g.name = define_gate;
      } else {
        g.name = define_gate + "#" + std::to_string(++anonymous);
        gates[open.back()].kids.push_back(g.name);
      }
      gates.push_back(std::move(g));
      open.push_back(gates.size() - 1);
    } else if ((name == "gate" || name == "basic-event") && !closing &&
               !open.empty()) {
      gates[open.back()].kids.push_back(attr(tag, "name"));
    }
  }
  return assemble(top, gates, events);
}

}  // namespace bench
