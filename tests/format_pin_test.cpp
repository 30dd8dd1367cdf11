// Pins what the tree readers and the Fig. 2 writer produce:
//   * Fig. 2 documents (ft::to_json) compared byte for byte with the
//     goldens in tests/golden/fig2;
//   * a fingerprint of every parsed tree, per format, for corpus/ and for
//     generated documents: EventIndex order, names, types, thresholds,
//     children and bit-exact probabilities;
//   * the line (and column, where one is given) each reader reports for a
//     table of malformed documents.
// A mismatch prints the value the current code produces, and a Fig. 2
// mismatch writes the current document into the test's temp dir.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "format/format.hpp"
#include "ft/builder.hpp"
#include "ft/json_writer.hpp"
#include "ft/parser.hpp"
#include "gen/generator.hpp"

namespace fta {
namespace {

namespace fs = std::filesystem;
using format::TreeFormat;

const fs::path kCorpusDir = fs::path(FTA_SOURCE_DIR) / "corpus";
const fs::path kFig2Dir =
    fs::path(FTA_SOURCE_DIR) / "tests" / "golden" / "fig2";

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string g17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// --- Fig. 2 goldens -------------------------------------------------------

ft::JsonSolution solution_of(const ft::FaultTree& tree,
                             std::vector<ft::EventIndex> events,
                             const std::string& solver, double seconds) {
  ft::JsonSolution s;
  s.mpmcs = ft::CutSet(std::move(events));
  s.probability = s.mpmcs.probability(tree);
  s.log_cost = s.mpmcs.log_cost(tree);
  s.solver = solver;
  s.solve_seconds = seconds;
  return s;
}

/// Names that need escaping, and the probability edges: 0, 1, -0,
/// subnormals, and values whose 12-digit form switches to exponents.
ft::FaultTree escaping_tree() {
  ft::FaultTreeBuilder b;
  const auto q = b.event("quote\"d", 0.0);
  const auto s = b.event("back\\slash", 1.0);
  const auto c =
      b.event(std::string("ctl\x01\x1f\t\r\n", 8), 4.9406564584124654e-324);
  const auto u = b.event("utf8 \xc3\xbc/\xe2\x82\xac", 2.2250738585072009e-308);
  const auto z = b.event("minus zero", -0.0);
  const auto e = b.event("tiny", 1e-5);
  const auto m = b.event("mid", 0.123456789012345678);
  const auto h = b.event("half", 0.5);
  const auto g1 = b.and_("g \"and\"", {q, s, c});
  const auto g2 = b.vote("g\\vote", 2, {u, z, e, m});
  b.top(b.or_("top\ttab", {g1, g2, h}));
  return std::move(b).build();
}

struct Fig2Case {
  std::string file;
  std::string document;
};

std::vector<Fig2Case> fig2_cases() {
  std::vector<Fig2Case> out;
  const ft::FaultTree fps = ft::fire_protection_system();
  out.push_back({"fps_solution.json",
                 ft::to_json(fps, solution_of(fps, {0, 1}, "oll", 0.00123))});
  out.push_back({"fps_plain.json", ft::to_json(fps)});
  out.push_back({"fps_compact.json",
                 ft::to_json(fps, solution_of(fps, {0, 1}, "oll", 0.5), 0)});
  out.push_back({"fps_indent4.json",
                 ft::to_json(fps, solution_of(fps, {2}, "lsu", 12345.678901234),
                             4)});

  gen::GeneratorOptions g;
  g.num_events = 40;
  g.vote_fraction = 0.3;
  g.sharing = 0.2;
  g.min_children = 3;
  const ft::FaultTree random = gen::random_tree(g, 11);
  const ft::JsonSolution random_cut =
      solution_of(random, {0, 3, 7}, "stratified", 1e-7);
  out.push_back({"random40.json", ft::to_json(random, random_cut)});
  const ft::FaultTree chain = gen::chain_tree(64, 5);
  out.push_back(
      {"chain64.json",
       ft::to_json(chain, solution_of(chain, {1, 2}, "oll-inc", 2e21))});
  const ft::FaultTree ladder = gen::ladder_tree(3, 42);
  out.push_back({"ladder3.json",
                 ft::to_json(ladder, solution_of(ladder, {0, 1}, "portfolio",
                                                 123456789012345.0))});

  const ft::FaultTree esc = escaping_tree();
  // p = 0 in the cut: probability 0 and a log cost of +inf, written null.
  ft::JsonSolution zero = solution_of(esc, {0, 1, 2}, "so\"lver\\", 0.0);
  out.push_back({"escaping_zero_cut.json", ft::to_json(esc, zero)});
  ft::JsonSolution odd = solution_of(esc, {4, 5}, "x", -1.5e-300);
  odd.probability = std::numeric_limits<double>::quiet_NaN();
  odd.log_cost = -std::numeric_limits<double>::infinity();
  out.push_back({"escaping_nonfinite.json", ft::to_json(esc, odd)});
  out.push_back({"escaping_compact.json", ft::to_json(esc, std::nullopt, 0)});
  return out;
}

TEST(Fig2Golden, DocumentsMatchByteForByte) {
  for (const Fig2Case& c : fig2_cases()) {
    const fs::path golden = kFig2Dir / c.file;
    const std::string want = slurp(golden);
    if (want != c.document) {
      const fs::path actual = fs::path(::testing::TempDir()) / c.file;
      std::ofstream(actual, std::ios::binary) << c.document;
      ADD_FAILURE() << c.file << " differs from " << golden
                    << "; this build's document is at " << actual;
    }
  }
}

// --- tree fingerprints ----------------------------------------------------

/// Everything a reader decides, as text: the top, each event in EventIndex
/// order with its probability's bits, and each gate (by name) with its
/// type, threshold and ordered children. Gate NodeIndex order is left out.
std::string fingerprint_text(const ft::FaultTree& t) {
  std::string out = "top " + t.node(t.top()).name + "\n";
  for (ft::EventIndex e = 0; e < t.num_events(); ++e) {
    char bits[24];
    std::snprintf(bits, sizeof bits, "%016llx",
                  static_cast<unsigned long long>(
                      std::bit_cast<std::uint64_t>(t.event(e).probability)));
    out += "e " + t.event(e).name + " " + bits + "\n";
  }
  std::vector<std::string> gates;
  for (ft::NodeIndex i = 0; i < t.num_nodes(); ++i) {
    const ft::Node& n = t.node(i);
    if (n.type == ft::NodeType::BasicEvent) continue;
    std::string line = "g " + n.name + " " + ft::node_type_name(n.type) + " " +
                       std::to_string(n.k) + ":";
    for (const ft::NodeIndex c : n.children) line += " " + t.node(c).name;
    gates.push_back(line + "\n");
  }
  std::sort(gates.begin(), gates.end());
  for (const std::string& g : gates) out += g;
  return out;
}

std::uint64_t fingerprint(const ft::FaultTree& t) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (const char c : fingerprint_text(t)) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// Gates first in preorder from the top, then the events; unquoted names,
/// mixed-case operators and comments. Both the Galileo reader and the
/// native reader accept it.
std::string gates_first_text(const ft::FaultTree& t) {
  std::vector<ft::NodeIndex> order;
  std::vector<char> seen(t.num_nodes(), 0);
  std::vector<ft::NodeIndex> stack{t.top()};
  while (!stack.empty()) {
    const ft::NodeIndex id = stack.back();
    stack.pop_back();
    if (seen[id]) continue;
    seen[id] = 1;
    order.push_back(id);
    const auto& kids = t.node(id).children;
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) stack.push_back(*it);
  }
  std::string out = "// generated\ntoplevel " + t.node(t.top()).name + ";\n";
  std::size_t i = 0;
  for (const ft::NodeIndex id : order) {
    const ft::Node& n = t.node(id);
    if (n.type == ft::NodeType::BasicEvent) continue;
    out += n.name + " ";
    if (n.type == ft::NodeType::Vote) {
      out += std::to_string(n.k) + "of" + std::to_string(n.children.size());
    } else {
      out += ++i % 2 ? (n.type == ft::NodeType::And ? "AND" : "Or")
                     : ft::node_type_name(n.type);
    }
    for (const ft::NodeIndex c : n.children) out += " " + t.node(c).name;
    out += i % 3 ? ";\n" : "; # gate\n";
  }
  // Events in reverse preorder: EventIndex follows first appearance.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const ft::Node& n = t.node(*it);
    if (n.type != ft::NodeType::BasicEvent) continue;
    out += n.name + " prob=" + g17(n.probability) + ";\n";
  }
  return out;
}

/// Open-PSA with the top gate first and the rest by NodeIndex, some
/// single-use child gates inlined as anonymous connectives, model-data for
/// every other event only, a probability declared for a gate and an
/// unreferenced event.
std::string nested_open_psa(const ft::FaultTree& t) {
  const auto is_gate = [&](ft::NodeIndex i) {
    return t.node(i).type != ft::NodeType::BasicEvent;
  };
  std::vector<std::uint32_t> parents(t.num_nodes(), 0);
  for (ft::NodeIndex i = 0; i < t.num_nodes(); ++i) {
    for (const ft::NodeIndex c : t.node(i).children) ++parents[c];
  }
  // A gate inlines at most one child, and an inlined gate inlines none.
  std::vector<char> inlined(t.num_nodes(), 0), inlines(t.num_nodes(), 0);
  for (ft::NodeIndex i = static_cast<ft::NodeIndex>(t.num_nodes()); i-- > 0;) {
    if (!is_gate(i) || inlined[i]) continue;
    for (const ft::NodeIndex c : t.node(i).children) {
      if (is_gate(c) && parents[c] == 1 && c != t.top() && !inlined[c] &&
          !inlines[c]) {
        inlined[c] = 1;
        inlines[i] = 1;
        break;
      }
    }
  }
  const auto connective = [&](const auto& self,
                              ft::NodeIndex id) -> std::string {
    const ft::Node& n = t.node(id);
    const std::string tag =
        n.type == ft::NodeType::Vote ? "atleast" : ft::node_type_name(n.type);
    std::string out = "<" + tag;
    if (n.type == ft::NodeType::Vote) {
      out += " min='" + std::to_string(n.k) + "'";
    }
    out += ">";
    for (const ft::NodeIndex c : n.children) {
      const ft::Node& child = t.node(c);
      if (!is_gate(c)) {
        out += "<basic-event name=\"" + child.name + "\"/>";
      } else if (inlined[c] && inlines[id]) {
        out += "\n  " + self(self, c);
      } else {
        out += "<gate name=\"" + child.name + "\"/>";
      }
    }
    return out + "</" + tag + ">";
  };
  const auto define = [&](ft::NodeIndex i) {
    return "<define-gate name=\"" + t.node(i).name + "\">" +
           connective(connective, i) + "</define-gate>\n";
  };
  std::string out = "<?xml version=\"1.0\"?>\n<!-- generated -->\n<opsa-mef>\n"
                    "<define-fault-tree name=\"g\">\n" +
                    define(t.top());
  for (ft::NodeIndex i = 0; i < t.num_nodes(); ++i) {
    if (is_gate(i) && i != t.top() && !inlined[i]) out += define(i);
  }
  out += "</define-fault-tree>\n<model-data>\n";
  for (ft::EventIndex e = t.num_events(); e-- > 0;) {
    if (e % 2) continue;
    out += "<define-basic-event name=\"" + t.event(e).name +
           "\"><float value=\"" + g17(t.event(e).probability) +
           "\"/></define-basic-event>\n";
  }
  out += "<define-basic-event name=\"" + t.node(t.top()).name +
         "\"><float value=\"0.5\"/></define-basic-event>\n"
         "<define-basic-event name=\"unreferenced\"><float value=\"0.25\"/>"
         "</define-basic-event>\n</model-data>\n</opsa-mef>\n";
  return out;
}

/// JSON with gates before events, the type aliases, escaped names and a
/// member the reader does not know.
std::string gates_first_json(const ft::FaultTree& t) {
  const auto name = [&](ft::NodeIndex i) {
    std::string out = "\"";
    for (const char c : t.node(i).name) {
      if (c == 'e') {
        out += "\\u0065";
      } else {
        out += c;
      }
    }
    return out + "\"";
  };
  std::string out = "{\"tool\": \"x\", \"nodes\": [";
  bool sep = false;
  for (const bool events : {false, true}) {
    for (auto i = static_cast<ft::NodeIndex>(t.num_nodes()); i-- > 0;) {
      const ft::Node& n = t.node(i);
      if ((n.type == ft::NodeType::BasicEvent) != events) continue;
      out += sep ? ",\n  " : "\n  ";
      sep = true;
      out += "{\"id\": " + name(i);
      if (events) {
        out += i % 2 ? ", \"type\": \"basic-event\"" : ", \"type\": \"basic\"";
        if (i % 5) out += ", \"prob\": " + g17(n.probability);
        out += ", \"meta\": [1, {\"k\": null}]}";
        continue;
      }
      if (n.type == ft::NodeType::Vote) {
        out += ", \"type\": \"atleast\", \"k\": " + std::to_string(n.k) + ".0";
      } else {
        out += std::string(", \"type\": \"") + ft::node_type_name(n.type) +
               "\"";
      }
      out += ", \"children\": [";
      for (std::size_t c = 0; c < n.children.size(); ++c) {
        out += (c ? ", " : "") + name(n.children[c]);
      }
      out += "]}";
    }
  }
  return out + "\n], \"top\": " + name(t.top()) + "}\n";
}

struct Parsed {
  std::string label;
  std::uint64_t fingerprint;
};

ft::FaultTree parse_as(const std::string& reader, const std::string& text) {
  if (reader == "native") return ft::parse_fault_tree(text);
  format::ParseOptions opts;
  opts.mission_time = 2.5;
  if (!format::parse_format_name(reader, &opts.format)) {
    throw std::invalid_argument(reader);
  }
  return format::parse_tree(text, opts);
}

std::vector<Parsed> parse_everything() {
  std::vector<Parsed> out;
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(kCorpusDir)) {
    const std::string ext = entry.path().extension().string();
    if (ext == ".dft" || ext == ".xml") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  for (const fs::path& file : files) {
    out.push_back({"corpus/" + file.filename().string(),
                   fingerprint(format::parse_tree(slurp(file), {},
                                                  file.filename().string()))});
  }

  std::vector<std::pair<std::string, ft::FaultTree>> trees;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    gen::GeneratorOptions g;
    g.num_events = 30 + 97 * static_cast<std::uint32_t>(seed);
    g.vote_fraction = seed % 2 ? 0.2 : 0.0;
    g.sharing = seed % 3 == 0 ? 0.0 : 0.1;
    g.min_children = 3;
    g.min_prob = seed == 4 ? 1e-300 : 1e-4;
    trees.emplace_back("random" + std::to_string(seed),
                       gen::random_tree(g, seed));
  }
  trees.emplace_back("chain3000", gen::chain_tree(3000, 9));
  gen::LadderOptions lo;
  lo.subsystems = 12;
  lo.members = 4;
  lo.k = 3;
  lo.nested = true;
  lo.combine = ft::NodeType::Vote;
  lo.combine_k = 3;
  trees.emplace_back("ladder12", gen::ladder_tree(lo, 3));

  for (const auto& [name, tree] : trees) {
    const auto add = [&](const std::string& how, const std::string& reader,
                         const std::string& text) {
      out.push_back({name + "/" + how + "/" + reader,
                     fingerprint(parse_as(reader, text))});
    };
    add("writer", "galileo", format::to_galileo(tree));
    add("writer", "openpsa", format::to_open_psa(tree));
    add("writer", "json", format::to_json(tree));
    add("gates-first", "galileo", gates_first_text(tree));
    add("gates-first", "native", gates_first_text(tree));
    add("nested", "openpsa", nested_open_psa(tree));
    add("gates-first", "json", gates_first_json(tree));
  }
  return out;
}

const std::map<std::string, std::uint64_t>& expected_fingerprints() {
  static const std::map<std::string, std::uint64_t> kExpected = {
      {"corpus/ccf_power.dft", 0xfb188102e89ad213ull},
      {"corpus/chemical_plant.xml", 0xba30a46475f15febull},
      {"corpus/deep_chain.dft", 0x9be60509f7efc523ull},
      {"corpus/fps_dsn2020.dft", 0xbb7428e17cc03cfbull},
      {"corpus/fps_dsn2020.xml", 0xbb7428e17cc03cfbull},
      {"corpus/hecs_static.dft", 0xb16c5907f9095248ull},
      {"corpus/hecs_static.xml", 0xb16c5907f9095248ull},
      {"corpus/mcs_static.dft", 0x66ec01f8267ac026ull},
      {"corpus/rc_ladder.dft", 0x2c89c334296f1957ull},
      {"corpus/shared_cooling.xml", 0x7b94fea397238f43ull},
      {"random1/writer/galileo", 0xb505791c5261c7d7ull},
      {"random1/writer/openpsa", 0xb505791c5261c7d7ull},
      {"random1/writer/json", 0xb505791c5261c7d7ull},
      {"random1/gates-first/galileo", 0x5e22a7b548ee34dfull},
      {"random1/gates-first/native", 0x5e22a7b548ee34dfull},
      {"random1/nested/openpsa", 0xd2764de19708cf80ull},
      {"random1/gates-first/json", 0xa8b075de12f7c646ull},
      {"random2/writer/galileo", 0x02f3cf6f2260979aull},
      {"random2/writer/openpsa", 0x02f3cf6f2260979aull},
      {"random2/writer/json", 0x02f3cf6f2260979aull},
      {"random2/gates-first/galileo", 0x7fde373c046fe030ull},
      {"random2/gates-first/native", 0x7fde373c046fe030ull},
      {"random2/nested/openpsa", 0x5460a04dfaf1a6a2ull},
      {"random2/gates-first/json", 0x63b50b1f93d3b51aull},
      {"random3/writer/galileo", 0xda2d33fd9a7a5555ull},
      {"random3/writer/openpsa", 0xda2d33fd9a7a5555ull},
      {"random3/writer/json", 0xda2d33fd9a7a5555ull},
      {"random3/gates-first/galileo", 0xe4e3ecfe5d4ccf4full},
      {"random3/gates-first/native", 0xe4e3ecfe5d4ccf4full},
      {"random3/nested/openpsa", 0x80309fe02b77bc3aull},
      {"random3/gates-first/json", 0xee140a50c48fb636ull},
      {"random4/writer/galileo", 0x195a803afc1876d2ull},
      {"random4/writer/openpsa", 0x195a803afc1876d2ull},
      {"random4/writer/json", 0x195a803afc1876d2ull},
      {"random4/gates-first/galileo", 0xe6171ba447b4d322ull},
      {"random4/gates-first/native", 0xe6171ba447b4d322ull},
      {"random4/nested/openpsa", 0xf2707e0b6030cd0dull},
      {"random4/gates-first/json", 0x1484eafa656a23c2ull},
      {"random5/writer/galileo", 0xc05e1f09aa0a740full},
      {"random5/writer/openpsa", 0xc05e1f09aa0a740full},
      {"random5/writer/json", 0xc05e1f09aa0a740full},
      {"random5/gates-first/galileo", 0xca58850be982bb15ull},
      {"random5/gates-first/native", 0xca58850be982bb15ull},
      {"random5/nested/openpsa", 0xd8bcfa15d3d2375aull},
      {"random5/gates-first/json", 0xb2ee668a0739ad21ull},
      {"random6/writer/galileo", 0xecb1838d608f701aull},
      {"random6/writer/openpsa", 0xecb1838d608f701aull},
      {"random6/writer/json", 0xecb1838d608f701aull},
      {"random6/gates-first/galileo", 0x78a8a7628646cd3cull},
      {"random6/gates-first/native", 0x78a8a7628646cd3cull},
      {"random6/nested/openpsa", 0x525db2fe918130d1ull},
      {"random6/gates-first/json", 0xac6719786d783ca0ull},
      {"chain3000/writer/galileo", 0x8f85ca93c7457fd8ull},
      {"chain3000/writer/openpsa", 0x8f85ca93c7457fd8ull},
      {"chain3000/writer/json", 0x8f85ca93c7457fd8ull},
      {"chain3000/gates-first/galileo", 0x4123daaa28fc5fd2ull},
      {"chain3000/gates-first/native", 0x4123daaa28fc5fd2ull},
      {"chain3000/nested/openpsa", 0x3e829ec9cc39cefeull},
      {"chain3000/gates-first/json", 0x3e66a162038cc76bull},
      {"ladder12/writer/galileo", 0xed425ab864bca2adull},
      {"ladder12/writer/openpsa", 0xed425ab864bca2adull},
      {"ladder12/writer/json", 0xed425ab864bca2adull},
      {"ladder12/gates-first/galileo", 0xed425ab864bca2adull},
      {"ladder12/gates-first/native", 0xed425ab864bca2adull},
      {"ladder12/nested/openpsa", 0xc4e46fe7e76e0ba9ull},
      {"ladder12/gates-first/json", 0xc25d91df0c46c6a5ull},
  };
  return kExpected;
}

TEST(ReaderFingerprint, EveryReaderBuildsTheSameTrees) {
  const auto& expected = expected_fingerprints();
  std::size_t checked = 0;
  for (const Parsed& p : parse_everything()) {
    const auto it = expected.find(p.label);
    char hex[24];
    std::snprintf(hex, sizeof hex, "0x%016llxull",
                  static_cast<unsigned long long>(p.fingerprint));
    if (it == expected.end()) {
      ADD_FAILURE() << "no fingerprint for {\"" << p.label << "\", " << hex
                    << "},";
      continue;
    }
    EXPECT_EQ(it->second, p.fingerprint)
        << "{\"" << p.label << "\", " << hex << "},";
    ++checked;
  }
  EXPECT_EQ(checked, expected.size());
}

// --- malformed documents --------------------------------------------------

struct Malformed {
  const char* reader;  ///< galileo | openpsa | json | native
  std::string text;
  std::size_t line;    ///< 0: not checked (the reader gives none)
  std::size_t column;  ///< 0: not checked (the reader gives none)
};

std::vector<Malformed> malformed_table() {
  const std::string ok_gates = "toplevel T;\nT or a b;\n";
  const std::string fault_tree =
      "<opsa-mef>\n<define-fault-tree name=\"t\">\n";
  const std::string gate_g =
      "<define-gate name=\"g\"><or><basic-event name=\"a\"/></or>"
      "</define-gate>\n";
  const std::string end_tree = "</define-fault-tree>\n";
  return {
      // Galileo: every defect is positioned at the token at fault.
      {"galileo", "toplevel T;\nT or a b\n", 2, 1},
      {"galileo", "toplevel T;\nT or \"a b;\n", 2, 6},
      {"galileo", "toplevel T;\n/* open\nT or a b;\n", 2, 1},
      {"galileo", "toplevel T;\nT pand a b;\n", 2, 3},
      {"galileo", "toplevel T;\nspare;\n", 2, 1},
      {"galileo", "toplevel T;\nT xor a b;\n", 2, 3},
      {"galileo", "toplevel T;\nT 2of3 a b;\n", 2, 3},
      {"galileo", "toplevel T;\nT 3/2 a b;\n", 2, 1},
      {"galileo", "toplevel T;\nT 0of2 a b;\n", 2, 1},
      {"galileo", ok_gates + "a prob=0.1abc;\n", 3, 3},
      {"galileo", ok_gates + "a prob=;\n", 3, 3},
      {"galileo", ok_gates + "a prob=1e-400;\n", 3, 3},
      {"galileo", ok_gates + "a prob=1.5;\n", 3, 1},
      {"galileo", ok_gates + "a prob=nan;\n", 3, 1},
      {"galileo", ok_gates + "a lambda=-1;\n", 3, 3},
      {"galileo", ok_gates + "a repl=2 prob=0.1;\n", 3, 3},
      {"galileo", ok_gates + "a foo=1;\n", 3, 3},
      {"galileo", ok_gates + "a dorm=0;\n", 3, 1},
      {"galileo", ok_gates + "a prob=0.1 \"x\";\n", 3, 12},
      {"galileo", ok_gates + "a \"prob=0.1\";\n", 3, 1},
      {"galileo", ok_gates + "T and a b;\n", 3, 1},
      {"galileo", ok_gates + "a prob=0.1;\na prob=0.2;\n", 4, 1},
      {"galileo", ok_gates + "T prob=0.5;\n", 3, 1},
      {"galileo", ok_gates + "\"\" prob=0.1;\n", 3, 1},
      {"galileo", ok_gates + "weird;\n", 3, 1},
      {"galileo", "T or a b;\na prob=0.1;\n", 1, 1},
      {"galileo", "toplevel T;\ntoplevel U;\nT or a b;\n", 2, 1},
      {"galileo", "toplevel T U;\n", 1, 1},
      {"galileo", "\n toplevel NOPE;\nT or a b;\n", 2, 2},
      // Which of the two gates the cycle names is not pinned.
      {"galileo", "toplevel A;\nA or B x; B or A y;\n", 2, 0},

      // Open-PSA: XML syntax, then the MEF mapping. The DOM reader gave
      // no column for mapping defects, and no position at all for an
      // out-of-range probability or an empty connective; those columns
      // and the last two rows' lines are the pull reader's.
      {"openpsa", "", 1, 1},
      {"openpsa", "<opsa-mef>", 1, 11},
      {"openpsa", fault_tree + "</opsa-mef>\n", 3, 11},
      {"openpsa", "<opsa-mef\n x=1/>", 2, 5},
      {"openpsa", "<opsa-mef x=\"1\" x=\"2\"/>", 1, 22},
      {"openpsa", "<opsa-mef x=\"1/>", 1, 17},
      {"openpsa", "<opsa-mef/>\n<b/>", 2, 1},
      {"openpsa", "<opsa-mef><!-- x </opsa-mef>", 1, 15},
      {"openpsa", "<?xml version=\"1.0\"\n<opsa-mef/>", 1, 1},
      {"openpsa", fault_tree + gate_g + end_tree + "</opsa-mef\n", 6, 1},
      {"openpsa", fault_tree + "<define-gate name=\"g\"><or>\n"
                  "<basic-event name=\"a\"></or></define-gate>\n" + end_tree +
                  "</opsa-mef>\n", 4, 27},
      {"openpsa", fault_tree + "<define-gate name=\"g\"><or>\n"
                  "<basic-event name=\"a\"/></or></define-gate>\n" + end_tree +
                  "</opsa-mef>\n<!-- trailing", 7, 5},
      {"openpsa", "<!DOCTYPE x>\n<opsa-mef/>", 1, 2},
      {"openpsa", "\n<foo/>", 2, 1},
      {"openpsa", "<opsa-mef>\n</opsa-mef>", 1, 1},
      {"openpsa", fault_tree + "<define-gate>\n<or/></define-gate>\n" +
                  end_tree + "</opsa-mef>", 3, 1},
      {"openpsa", fault_tree + "<define-gate name=\"g\">\n<or/><and/>"
                  "</define-gate>\n" + end_tree + "</opsa-mef>", 3, 1},
      {"openpsa", fault_tree + "<define-gate name=\"g\">\n<xor>"
                  "<basic-event name=\"a\"/></xor></define-gate>\n" +
                  end_tree + "</opsa-mef>", 4, 1},
      {"openpsa", fault_tree + "<define-gate name=\"g\">\n<atleast>"
                  "<basic-event name=\"a\"/></atleast></define-gate>\n" +
                  end_tree + "</opsa-mef>", 4, 1},
      {"openpsa", fault_tree + "<define-gate name=\"g\">\n<atleast min=\"x\">"
                  "<basic-event name=\"a\"/></atleast></define-gate>\n" +
                  end_tree + "</opsa-mef>", 4, 1},
      {"openpsa", fault_tree + "<define-gate name=\"g\"><or>\n<foo/>"
                  "</or></define-gate>\n" + end_tree + "</opsa-mef>", 4, 1},
      {"openpsa", fault_tree + "<define-gate name=\"g\"><or>\n<gate/>"
                  "</or></define-gate>\n" + end_tree + "</opsa-mef>", 4, 1},
      {"openpsa", fault_tree + gate_g + "\n" + gate_g + end_tree +
                  "</opsa-mef>", 5, 23},
      {"openpsa", "<opsa-mef>\n\n<define-fault-tree name=\"t\"/></opsa-mef>",
       3, 1},
      {"openpsa", fault_tree + gate_g + end_tree +
                  "<model-data>\n<define-basic-event name=\"a\"/>\n"
                  "</model-data></opsa-mef>", 6, 1},
      {"openpsa", fault_tree + gate_g + end_tree +
                  "<model-data>\n<define-basic-event name=\"a\">\n<float/>"
                  "</define-basic-event></model-data></opsa-mef>", 7, 1},
      {"openpsa", fault_tree + gate_g + end_tree +
                  "<model-data>\n<define-basic-event name=\"a\">\n"
                  "<float value=\"abc\"/></define-basic-event></model-data>"
                  "</opsa-mef>", 7, 1},
      {"openpsa", fault_tree + gate_g + end_tree +
                  "<model-data>\n<define-basic-event name=\"a\"><float "
                  "value=\"0.1\"/></define-basic-event>\n<define-basic-event "
                  "name=\"a\"><float value=\"0.2\"/></define-basic-event>"
                  "</model-data></opsa-mef>", 7, 1},
      {"openpsa", fault_tree + "<define-gate name=\"a\"><or><gate name=\"b\"/>"
                  "</or></define-gate>\n<define-gate name=\"b\">\n<or><gate "
                  "name=\"a\"/></or></define-gate>\n" + end_tree +
                  "</opsa-mef>", 3, 23},
      {"openpsa", fault_tree + "<define-gate name=\"g\">\n<atleast min=\"3\">"
                  "<basic-event name=\"a\"/><basic-event name=\"b\"/>"
                  "</atleast></define-gate>\n" + end_tree + "</opsa-mef>",
       4, 1},
      {"openpsa", fault_tree + "<define-gate name=\"g\">\n<atleast min=\"0\">"
                  "<basic-event name=\"a\"/></atleast></define-gate>\n" +
                  end_tree + "</opsa-mef>", 4, 1},
      {"openpsa", fault_tree + gate_g + end_tree +
                  "<model-data>\n<define-basic-event name=\"a\"><float "
                  "value=\"1.5\"/></define-basic-event>\n</model-data>"
                  "</opsa-mef>", 6, 30},
      {"openpsa", fault_tree + "<define-gate name=\"g\">\n<or></or>"
                  "</define-gate>\n" + end_tree + "</opsa-mef>", 4, 1},

      // JSON: syntax errors carry the tokenizer's position.
      {"json", "{\"top\": \"T\",\n \"nodes\": [\n", 3, 1},
      {"json", "{\"top\": \"T\", \"nodes\": [}\n", 1, 24},
      {"json", "{\"top\": \"T\"\n \"nodes\": []}", 2, 2},
      {"json", "{\"top\": \"T\",\n \"nodes\": [{\"id\": \"a\\q\"}]}", 2, 23},
      {"json", "{\"top\": tru}", 1, 9},
      // The tokenizer reads 01 as a number: a schema error, at the entry.
      {"json", "{\"top\": \"T\", \"nodes\": [01]}", 1, 24},
      {"json", "{\"top\": \"T\", \"nodes\": []}\n x", 2, 2},
      {"json", "{\"top\": \"T\", \"nodes\": [{\"id\": \"a\", \"prob\": -}]}",
       1, 45},
      {"json", "{\"x\":\n" + std::string(70, '[') + std::string(70, ']') + "}",
       2, 65},
      {"json", "[]", 1, 1},
      {"json", "{\"nodes\": []}", 1, 1},
      {"json", "{\"top\": \"T\"}", 1, 1},
      {"json", "{\"top\": 3, \"nodes\": []}", 1, 9},
      // JSON schema errors sit at the offending node, member or child (the
      // DOM reader put every one at line 1, column 1).
      {"json", "{\"top\": \"T\", \"nodes\": [\n  3\n]}", 2, 3},
      {"json", "{\"top\": \"T\", \"nodes\": [\n  {\"type\": \"or\"}\n]}", 2, 3},
      {"json", "{\"top\": \"T\", \"nodes\": [\n  {\"id\": \"a\", \"type\": "
               "\"event\"},\n  {\"id\": \"a\", \"type\": \"event\"}\n]}", 3, 3},
      {"json", "{\"top\": \"T\", \"nodes\": [\n  {\"id\": \"T\", \"type\": "
               "\"xor\"}\n]}", 2, 3},
      {"json", "{\"top\": \"T\", \"nodes\": [\n  {\"id\": \"a\", \"type\": "
               "\"event\"},\n  {\"id\": \"T\", \"type\": \"vote\", \"k\": 1.5, "
               "\"children\": [\"a\"]}\n]}", 3, 3},
      {"json", "{\"top\": \"T\", \"nodes\": [\n  {\"id\": \"T\", \"type\": "
               "\"or\"}\n]}", 2, 3},
      {"json", "{\"top\": \"T\", \"nodes\": [\n  {\"id\": \"T\", \"type\": "
               "\"or\",\n   \"children\": [3]}\n]}", 3, 17},
      {"json", "{\"top\": \"T\", \"nodes\": [\n  {\"id\": \"T\", \"type\": "
               "\"or\", \"children\": [\"U\"]},\n  {\"id\": \"U\", \"type\": "
               "\"or\", \"children\": [\"T\"]}\n]}", 2, 3},
      {"json", "{\"top\": \"T\", \"nodes\": [\n  {\"id\": \"a\", \"type\": "
               "\"event\"},\n  {\"id\": \"T\", \"type\": \"or\",\n   "
               "\"children\": [\"a\", \"zz\"]}\n]}", 4, 22},
      {"json", "{\"top\": \"X\", \"nodes\": [\n  {\"id\": \"a\", \"type\": "
               "\"event\"}\n]}", 1, 9},
      {"json", "{\"top\": \"a\", \"nodes\": [\n  {\"id\": \"a\", \"type\": "
               "\"event\", \"prob\": 1.5}\n]}", 2, 3},
      {"json", "{\"top\": \"a\", \"nodes\": [\n  {\"id\": \"a\", \"type\": "
               "\"event\", \"prob\": \"x\"}\n]}", 2, 40},
      // A probability that underflows or overflows is refused at the
      // number, as Galileo's and Open-PSA's are (it read as 0 and inf).
      {"json", "{\"top\": \"a\", \"nodes\": [\n  {\"id\": \"a\", \"type\": "
               "\"event\", \"prob\": 1e-400}\n]}", 2, 40},
      {"json", "{\"top\": \"a\", \"nodes\": [\n  {\"id\": \"a\", \"type\": "
               "\"event\", \"prob\": 1e400}\n]}", 2, 40},
      {"json", "{\"top\": \"T\", \"nodes\": [\n  {\"id\": \"a\", \"type\": "
               "\"event\"},\n  {\"id\": \"T\", \"type\": \"vote\", \"k\": 2, "
               "\"children\": [\"a\"]}\n]}", 3, 3},

      // The native reader reports lines only. It is the Galileo reader, so
      // an out-of-range probability, a probability on a gate and an empty
      // name are on the line of the offending statement (the old reader
      // said line 1, the gate's line, and line 1).
      {"native", "toplevel T;\nT or a b\n", 2, 0},
      {"native", "toplevel \"T;\n", 1, 0},
      {"native", "toplevel T;\nT nonsense a b;\n", 2, 0},
      {"native", "toplevel T U;\n", 1, 0},
      {"native", "toplevel T;\ntoplevel U;\n", 2, 0},
      {"native", ok_gates + "a prob=0.1 x;\n", 3, 0},
      {"native", ok_gates + "a prob=banana;\n", 3, 0},
      {"native", ok_gates + "a prob=0.1;\na prob=0.2;\n", 4, 0},
      {"native", "toplevel T;\nT 2of3 a b;\n", 2, 0},
      {"native", ok_gates + "T and a b;\n", 3, 0},
      {"native", "toplevel T;\nweird;\n", 2, 0},
      {"native", "T or a b;\n", 1, 0},
      {"native", "\ntoplevel NOPE;\nT or a b;\n", 2, 0},
      {"native", ok_gates + "a prob=1.5;\n", 3, 0},
      {"native", ok_gates + "T prob=0.5;\n", 3, 0},
      {"native", "toplevel T;\nT 0of2 a b;\n", 2, 0},
      {"native", "toplevel A;\nA or B x; B or A y;\n", 2, 0},
      {"native", ok_gates + "a x=1;\n", 3, 0},
      {"native", ok_gates + "\"\" prob=0.1;\n", 3, 0},
  };
}

TEST(MalformedTable, EachReaderReportsTheSamePosition) {
  for (const Malformed& m : malformed_table()) {
    const std::string reader = m.reader;
    std::size_t line = 0, column = 0;
    std::string what;
    try {
      (void)parse_as(reader, m.text);
      ADD_FAILURE() << reader << " accepted: " << m.text;
      continue;
    } catch (const format::ParseError& e) {
      EXPECT_NE(reader, "native") << m.text;
      line = e.line();
      column = e.column();
      what = e.what();
    } catch (const ft::ParseError& e) {
      EXPECT_EQ(reader, "native") << m.text;
      line = e.line();
      what = e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << reader << " threw an unstructured error: " << e.what();
      continue;
    }
    EXPECT_TRUE((m.line == 0 || line == m.line) &&
                (m.column == 0 || column == m.column))
        << reader << ": got line " << line << ", column " << column
        << " (want " << m.line << ", " << m.column << ") for\n"
        << m.text << "\n-> " << what;
  }
}

}  // namespace
}  // namespace fta
