// Conformance suite for the standard-format ingestion layer
// (src/format): Galileo DFT + Open-PSA parsing, round-trip property
// tests over the generator, truncation/mutation fuzzing (structured
// errors only, never a crash), golden-file conformance against the
// checked-in corpus, a differential oracle across portfolio members,
// WCNF export/re-import cost identity, and the HTTP layer's `format`
// negotiation (malformed bodies are 400s, not 500s).

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "bdd/fta_bdd.hpp"
#include "core/pipeline.hpp"
#include "format/format.hpp"
#include "format/galileo.hpp"
#include "format/wcnf_export.hpp"
#include "ft/tree_delta.hpp"
#include "gen/generator.hpp"
#include "maxsat/instance.hpp"
#include "service/http_server.hpp"
#include "service/solve_service.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace fta {
namespace {

namespace fs = std::filesystem;

const fs::path kCorpusDir = fs::path(FTA_SOURCE_DIR) / "corpus";
const fs::path kGoldenDir = fs::path(FTA_SOURCE_DIR) / "tests" / "golden";

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::vector<fs::path> corpus_files() {
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(kCorpusDir)) {
    const std::string ext = entry.path().extension().string();
    if (ext == ".dft" || ext == ".ft" || ext == ".xml" || ext == ".json") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

double prob_of(const ft::FaultTree& tree, const std::string& name) {
  return tree.node(tree.find(name)).probability;
}

std::vector<std::string> cut_names(const ft::FaultTree& tree,
                                   const ft::CutSet& cut) {
  std::vector<std::string> names;
  for (const ft::EventIndex e : cut.events()) {
    names.push_back(tree.event(e).name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

// --- Galileo grammar ----------------------------------------------------

TEST(GalileoParse, PaperFigureOne) {
  const std::string text =
      "toplevel \"FPS\";\n"
      "\"FPS\" and \"WDS\" \"SDS\";\n"
      "\"WDS\" or \"x1\" \"x3\";\n"
      "\"SDS\" or \"x2\" \"x3\";\n"
      "\"x1\" prob=0.1;\n"
      "\"x2\" prob=0.2;\n"
      "\"x3\" prob=0.015;\n";
  const ft::FaultTree tree = format::parse_galileo(text);
  EXPECT_EQ(tree.num_events(), 3u);
  EXPECT_EQ(tree.node(tree.top()).name, "FPS");
  EXPECT_DOUBLE_EQ(prob_of(tree, "x3"), 0.015);
}

TEST(GalileoParse, UnquotedNamesVotesAndComments) {
  const std::string text =
      "// line comment\n"
      "# hash comment\n"
      "/* block\n   comment */\n"
      "toplevel Sys;\n"
      "Sys 2of3 a b c;  // vote\n"
      "a prob=0.1; b prob=0.2; c prob=0.3;\n";
  const ft::FaultTree tree = format::parse_galileo(text);
  const ft::Node& top = tree.node(tree.top());
  EXPECT_EQ(top.type, ft::NodeType::Vote);
  EXPECT_EQ(top.k, 2u);
  EXPECT_EQ(top.children.size(), 3u);
}

TEST(GalileoParse, SlashVoteSyntax) {
  const std::string text =
      "toplevel T;\nT 2/4 a b c d;\n"
      "a prob=0.1; b prob=0.1; c prob=0.1; d prob=0.1;\n";
  const ft::FaultTree tree = format::parse_galileo(text);
  EXPECT_EQ(tree.node(tree.top()).type, ft::NodeType::Vote);
  EXPECT_EQ(tree.node(tree.top()).k, 2u);
}

TEST(GalileoParse, LambdaConvertsAtMissionTime) {
  const std::string text =
      "toplevel T;\nT or a b;\na lambda=0.002 dorm=0.5;\nb prob=0.1;\n";
  format::GalileoOptions opts;
  opts.mission_time = 100.0;
  const ft::FaultTree tree = format::parse_galileo(text, opts);
  EXPECT_DOUBLE_EQ(prob_of(tree, "a"), 1.0 - std::exp(-0.002 * 100.0));
}

TEST(GalileoParse, UndeclaredChildBecomesZeroProbEvent) {
  // Matches the native .ft parser: referenced-but-undeclared names are
  // basic events with p = 0 (never in an optimal cut, still structural).
  const ft::FaultTree tree =
      format::parse_galileo("toplevel T;\nT or a b;\na prob=0.2;\n");
  EXPECT_DOUBLE_EQ(prob_of(tree, "b"), 0.0);
}

TEST(GalileoParse, DynamicGatesRejectedWithPosition) {
  for (const std::string gate : {"pand", "por", "seq", "fdep", "spare", "wsp",
                                 "csp", "hsp", "pdep"}) {
    const std::string text =
        "toplevel T;\nT " + gate + " a b;\na prob=0.1;\nb prob=0.1;\n";
    try {
      format::parse_galileo(text);
      FAIL() << "dynamic gate '" << gate << "' must be rejected";
    } catch (const format::ParseError& e) {
      EXPECT_EQ(e.format(), format::TreeFormat::Galileo);
      EXPECT_EQ(e.line(), 2u) << gate;
      EXPECT_GT(e.column(), 0u) << gate;
      EXPECT_NE(e.detail().find(gate), std::string::npos) << e.what();
      EXPECT_NE(e.detail().find("static"), std::string::npos)
          << "diagnostic should explain the static-tree scope: " << e.what();
    }
  }
}

TEST(GalileoParse, ReplicationAboveOneRejected) {
  const std::string text = "toplevel T;\nT or a b;\na prob=0.1 repl=2;\n";
  try {
    format::parse_galileo(text);
    FAIL() << "repl=2 must be rejected";
  } catch (const format::ParseError& e) {
    EXPECT_EQ(e.line(), 3u);
    EXPECT_NE(e.detail().find("repl"), std::string::npos);
  }
  // repl=1 is the identity and accepted.
  EXPECT_NO_THROW(format::parse_galileo(
      "toplevel T;\nT or a b;\na prob=0.1 repl=1;\nb prob=0.1;\n"));
}

TEST(GalileoParse, StructuredErrorsCarryPositions) {
  struct Case {
    std::string text;
    std::size_t line;
  };
  const std::vector<Case> cases = {
      {"toplevel T;\nT or a b;\na prob=1.5;\n", 3},     // p out of range
      {"toplevel T;\nT or a b", 2},                     // no ';' at EOF
      {"toplevel T;\nT or T;\n", 2},                    // self-cycle
      {"T or a b;\na prob=0.1;\n", 1},                  // missing toplevel
      {"toplevel T;\ntoplevel U;\n", 2},                // duplicate toplevel
      {"toplevel T;\nT or a b;\nT or a;\n", 3},         // duplicate gate
      {"toplevel T;\nT or a b;\na prob=xyz;\n", 3},     // bad number
  };
  for (const Case& c : cases) {
    try {
      format::parse_galileo(c.text);
      FAIL() << "must reject: " << c.text;
    } catch (const format::ParseError& e) {
      EXPECT_EQ(e.line(), c.line) << c.text << " -> " << e.what();
      EXPECT_GT(e.column(), 0u) << c.text;
    }
  }
}

// --- Open-PSA -----------------------------------------------------------

TEST(OpenPsaParse, AnonymousNestedConnectives) {
  const std::string text = R"(<?xml version="1.0"?>
<opsa-mef>
  <define-fault-tree name="t">
    <define-gate name="top">
      <or>
        <and><basic-event name="a"/><basic-event name="b"/></and>
        <basic-event name="c"/>
      </or>
    </define-gate>
  </define-fault-tree>
  <model-data>
    <define-basic-event name="a"><float value="0.1"/></define-basic-event>
    <define-basic-event name="b"><float value="0.2"/></define-basic-event>
    <define-basic-event name="c"><float value="0.01"/></define-basic-event>
  </model-data>
</opsa-mef>
)";
  const ft::FaultTree tree =
      format::parse_tree(text, {format::TreeFormat::OpenPsa});
  EXPECT_EQ(tree.num_events(), 3u);
  EXPECT_EQ(tree.node(tree.top()).name, "top");
  // The synthesized AND subgate must be reachable under the top OR.
  EXPECT_EQ(tree.node(tree.top()).children.size(), 2u);
}

TEST(OpenPsaParse, ErrorsCarryLineAndColumn) {
  // XML-level defect (unclosed tag): position must be present.
  try {
    format::parse_tree("<opsa-mef><define-fault-tree>", {},
                       "broken.xml");
    FAIL();
  } catch (const format::ParseError& e) {
    EXPECT_EQ(e.format(), format::TreeFormat::OpenPsa);
    EXPECT_GT(e.line(), 0u);
  }
  // Schema-level defect: wrong root element.
  try {
    format::parse_tree("<not-mef/>", {}, "bad.xml");
    FAIL();
  } catch (const format::ParseError& e) {
    EXPECT_NE(e.detail().find("opsa-mef"), std::string::npos);
  }
}

/// `depth` nested <and> connectives under one define-gate, one element
/// per line; the innermost holds a basic event.
std::string nested_open_psa(std::size_t depth) {
  std::string text =
      "<opsa-mef>\n<define-fault-tree name=\"t\">\n"
      "<define-gate name=\"top\">\n";
  for (std::size_t i = 0; i < depth; ++i) text += "<and>\n";
  text += "<basic-event name=\"x\"/>\n";
  for (std::size_t i = 0; i < depth; ++i) text += "</and>\n";
  return text + "</define-gate>\n</define-fault-tree>\n</opsa-mef>\n";
}

TEST(OpenPsaParse, ElementNestingIsCappedAt64Levels) {
  const format::ParseOptions opts{format::TreeFormat::OpenPsa};
  // <opsa-mef>, <define-fault-tree> and <define-gate> are three levels:
  // 60 connectives put the basic event at level 64.
  const ft::FaultTree tree = format::parse_tree(nested_open_psa(60), opts);
  EXPECT_EQ(tree.num_events(), 1u);
  EXPECT_EQ(tree.num_nodes(), 61u);
  try {
    format::parse_tree(nested_open_psa(61), opts);
    FAIL() << "a 65th level was accepted";
  } catch (const format::ParseError& e) {
    // Line 4 + 61 holds the basic event, the 65th level.
    EXPECT_EQ(e.line(), 65u) << e.what();
    EXPECT_EQ(e.column(), 1u) << e.what();
    EXPECT_NE(e.detail().find("64"), std::string::npos) << e.what();
  }
  // Deep enough to overflow a recursive reader's stack: a positioned
  // error, not a crash.
  EXPECT_THROW(format::parse_tree(nested_open_psa(50'000), opts),
               format::ParseError);
}

TEST(OpenPsaParse, NumbersMustBeAllNumber) {
  const auto doc = [](const std::string& min, const std::string& value) {
    return "<opsa-mef><define-fault-tree name=\"t\"><define-gate "
           "name=\"g\">\n<atleast min=\"" + min + "\"><basic-event "
           "name=\"a\"/><basic-event name=\"b\"/></atleast></define-gate>"
           "</define-fault-tree><model-data>\n<define-basic-event name=\"a\">"
           "\n  <float value=\"" + value + "\"/></define-basic-event>"
           "</model-data></opsa-mef>";
  };
  const format::ParseOptions opts{format::TreeFormat::OpenPsa};
  for (const auto& [min, value, line, column] :
       {std::make_tuple("2x", "0.1", 2u, 1u),
        std::make_tuple("2", "0.1abc", 4u, 3u),
        std::make_tuple("-1", "0.1", 2u, 1u),
        std::make_tuple("4294967298", "0.1", 2u, 1u)}) {
    try {
      format::parse_tree(doc(min, value), opts);
      ADD_FAILURE() << "accepted min=" << min << " value=" << value;
    } catch (const format::ParseError& e) {
      EXPECT_EQ(e.line(), line) << e.what();
      EXPECT_EQ(e.column(), column) << e.what();
    }
  }
  // Every spelling std::stoul and std::stod read in full stays accepted.
  for (const auto& [min, value, p] :
       {std::make_tuple(" +2 ", "+5E-1", 0.5),
        std::make_tuple("2", " .25 ", 0.25),
        std::make_tuple("02", "0x1p-3", 0.125),
        std::make_tuple("2", "1e-3", 1e-3)}) {
    const ft::FaultTree tree = format::parse_tree(doc(min, value), opts);
    EXPECT_EQ(tree.node(tree.top()).k, 2u) << min;
    EXPECT_EQ(prob_of(tree, "a"), p) << value;
  }
}

TEST(GalileoParse, NumberSpellingsStodReads) {
  for (const auto& [text, p] :
       {std::make_pair("+0.5", 0.5), std::make_pair("5e-1", 0.5),
        std::make_pair("0x1p-1", 0.5), std::make_pair(".5", 0.5),
        std::make_pair("1E-300", 1e-300),
        // Subnormals, which std::stod rejects, are kept.
        std::make_pair("1e-310", 1e-310),
        std::make_pair("5e-324", std::numeric_limits<double>::denorm_min())}) {
    const ft::FaultTree tree = format::parse_galileo(
        std::string("toplevel T;\nT or a b;\na prob=") + text + ";\n");
    EXPECT_EQ(prob_of(tree, "a"), p) << text;
  }
  for (const char* bad : {"0.1abc", "", "1e-400", "2e-324", "0x", "--1"}) {
    EXPECT_THROW(format::parse_galileo(std::string("toplevel T;\nT or a b;\n"
                                                   "a prob=") +
                                       bad + ";\n"),
                 format::ParseError)
        << bad;
  }
}

// --- JSON ---------------------------------------------------------------

TEST(JsonParse, RoundTripsTreeDocument) {
  gen::GeneratorOptions g;
  g.num_events = 40;
  g.vote_fraction = 0.15;
  g.sharing = 0.2;
  const ft::FaultTree tree = gen::random_tree(g, 7);
  const ft::FaultTree back = format::parse_tree(
      format::to_json(tree), {}, "tree.json");
  EXPECT_TRUE(ft::structural_equal(tree, back, true));
}

TEST(JsonParse, SchemaErrorsArePositionedAtTheOffendingNode) {
  const format::ParseOptions opts{format::TreeFormat::Json};
  const std::string text =
      "{\"top\": \"T\", \"nodes\": [\n"
      "  {\"id\": \"a\", \"type\": \"event\", \"prob\": 0.5},\n"
      "  {\"id\": \"T\", \"type\": \"or\",\n"
      "   \"children\": [\"a\", \"zz\"]}\n"
      "]}\n";
  try {
    format::parse_tree(text, opts);
    FAIL();
  } catch (const format::ParseError& e) {
    EXPECT_EQ(e.line(), 4u) << e.what();
    EXPECT_EQ(e.column(), 22u) << e.what();
    EXPECT_NE(e.detail().find("undefined child 'zz'"), std::string::npos);
  }
  try {
    format::parse_tree("{\"top\": \"T\", \"nodes\": [\n  {\"id\": \"T\", "
                       "\"type\": \"or\", \"children\": [\"a\"]},\n  "
                       "{\"id\": \"a\", \"type\": \"xor\"}\n]}",
                       opts);
    FAIL();
  } catch (const format::ParseError& e) {
    EXPECT_EQ(e.line(), 3u) << e.what();
    EXPECT_EQ(e.column(), 3u) << e.what();
  }
}

TEST(JsonParse, MalformedDocumentsAreStructuredErrors) {
  for (const std::string& bad :
       {std::string("{\"top\": 0}"), std::string("{\"nodes\": []}"),
        std::string("{ this is not json"), std::string("{}"),
        std::string("{\"top\": 0, \"nodes\": [{\"id\": \"a\"}]}")}) {
    format::ParseOptions opts;
    opts.format = format::TreeFormat::Json;
    EXPECT_THROW(format::parse_tree(bad, opts), format::ParseError) << bad;
  }
}

// --- detection ----------------------------------------------------------

TEST(DetectFormat, ExtensionThenContent) {
  using format::TreeFormat;
  EXPECT_EQ(format::detect_format("a.dft", ""), TreeFormat::Galileo);
  EXPECT_EQ(format::detect_format("a.ft", ""), TreeFormat::Galileo);
  EXPECT_EQ(format::detect_format("a.xml", ""), TreeFormat::OpenPsa);
  EXPECT_EQ(format::detect_format("a.json", ""), TreeFormat::Json);
  EXPECT_EQ(format::detect_format("", "  <opsa-mef>"), TreeFormat::OpenPsa);
  EXPECT_EQ(format::detect_format("", "{\"top\": 1}"), TreeFormat::Json);
  EXPECT_EQ(format::detect_format("", "toplevel T;"), TreeFormat::Galileo);
}

TEST(DetectFormat, NameAliases) {
  using format::TreeFormat;
  TreeFormat f = TreeFormat::Auto;
  EXPECT_TRUE(format::parse_format_name("galileo", &f));
  EXPECT_EQ(f, TreeFormat::Galileo);
  EXPECT_TRUE(format::parse_format_name("dft", &f));
  EXPECT_EQ(f, TreeFormat::Galileo);
  EXPECT_TRUE(format::parse_format_name("open-psa", &f));
  EXPECT_EQ(f, TreeFormat::OpenPsa);
  EXPECT_TRUE(format::parse_format_name("OPENPSA", &f));
  EXPECT_EQ(f, TreeFormat::OpenPsa);
  EXPECT_FALSE(format::parse_format_name("fortran", &f));
}

// --- round-trip property tests ------------------------------------------

class RoundTripProperty
    : public ::testing::TestWithParam<format::TreeFormat> {};

TEST_P(RoundTripProperty, GeneratorSerializeParseIsIdentity) {
  const format::TreeFormat fmt = GetParam();
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    gen::GeneratorOptions g;
    g.num_events = 10 + static_cast<std::uint32_t>(seed % 60);
    g.vote_fraction = (seed % 3 == 0) ? 0.2 : 0.0;
    g.sharing = (seed % 2 == 0) ? 0.25 : 0.0;
    const ft::FaultTree tree = gen::random_tree(g, seed);
    const std::string text = format::serialize_tree(tree, fmt);
    format::ParseOptions opts;
    opts.format = fmt;
    const ft::FaultTree back = format::parse_tree(text, opts);
    ASSERT_TRUE(ft::structural_equal(tree, back, true))
        << format::format_name(fmt) << " round-trip diverged at seed "
        << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(AllFormats, RoundTripProperty,
                         ::testing::Values(format::TreeFormat::Galileo,
                                           format::TreeFormat::OpenPsa,
                                           format::TreeFormat::Json),
                         [](const auto& info) {
                           return std::string(format::format_name(info.param));
                         });

// --- truncation / mutation fuzz -----------------------------------------

/// Parsing arbitrary corruptions must either succeed or throw
/// format::ParseError with a position — never crash, never leak another
/// exception type.
void expect_structured_or_ok(const std::string& text,
                             format::TreeFormat fmt,
                             const std::string& label) {
  format::ParseOptions opts;
  opts.format = fmt;
  try {
    (void)format::parse_tree(text, opts);
  } catch (const format::ParseError& e) {
    EXPECT_FALSE(e.detail().empty()) << label;
  } catch (const std::exception& e) {
    FAIL() << label << ": non-structured exception escaped: " << e.what();
  }
}

TEST(FormatFuzz, TruncationsNeverCrash) {
  for (const fs::path& file : corpus_files()) {
    const std::string text = slurp(file);
    const format::TreeFormat fmt =
        format::detect_format(file.filename().string(), text);
    // Cut at ~37 positions spread over the document.
    const std::size_t step = std::max<std::size_t>(1, text.size() / 37);
    for (std::size_t cut = 0; cut < text.size(); cut += step) {
      expect_structured_or_ok(
          text.substr(0, cut), fmt,
          file.filename().string() + " truncated at " + std::to_string(cut));
    }
  }
}

TEST(FormatFuzz, ByteMutationsNeverCrash) {
  std::mt19937_64 rng(20200625);  // DSN'20 presentation date
  for (const fs::path& file : corpus_files()) {
    const std::string original = slurp(file);
    const format::TreeFormat fmt =
        format::detect_format(file.filename().string(), original);
    for (int round = 0; round < 40; ++round) {
      std::string text = original;
      const std::size_t flips = 1 + rng() % 4;
      for (std::size_t i = 0; i < flips; ++i) {
        const std::size_t pos = rng() % text.size();
        text[pos] = static_cast<char>(rng() % 127 + 1);
      }
      expect_structured_or_ok(
          text, fmt,
          file.filename().string() + " mutation round " +
              std::to_string(round));
    }
  }
}

// --- golden-file conformance --------------------------------------------

TEST(GoldenConformance, CorpusMatchesGoldens) {
  std::size_t checked = 0;
  for (const auto& entry : fs::directory_iterator(kGoldenDir)) {
    if (entry.path().extension() != ".json") continue;
    const util::JsonValue golden = util::JsonValue::parse(slurp(entry.path()));
    const std::string instance = golden.get_string("instance", "");
    ASSERT_FALSE(instance.empty()) << entry.path();
    const fs::path input = kCorpusDir / instance;
    const std::string text = slurp(input);
    const ft::FaultTree tree =
        format::parse_tree(text, {}, input.filename().string());

    const core::MpmcsPipeline pipeline{core::PipelineOptions{}};
    const core::MpmcsSolution sol = pipeline.solve(tree);
    ASSERT_EQ(sol.status, maxsat::MaxSatStatus::Optimal) << instance;

    // Field-exact checks: the optimum in scaled-integer space, the model
    // size, and (when unique) the MPMCS membership itself.
    EXPECT_EQ(static_cast<double>(sol.scaled_cost),
              golden.get_number("scaledCost", -1))
        << instance;
    EXPECT_EQ(static_cast<double>(tree.num_events()),
              golden.get_number("events", -1))
        << instance;
    EXPECT_NEAR(sol.probability, golden.get_number("probability", -1),
                std::abs(golden.get_number("probability", -1)) * 1e-9)
        << instance;
    EXPECT_EQ(static_cast<double>(sol.cut.size()),
              golden.get_number("cutSize", -1))
        << instance;
    if (golden.get_bool("cutUnique", false)) {
      const util::JsonValue* cut = golden.find("cut");
      ASSERT_NE(cut, nullptr) << instance;
      std::vector<std::string> expected;
      for (const auto& item : cut->items()) expected.push_back(item.as_string());
      EXPECT_EQ(cut_names(tree, sol.cut), expected) << instance;
    }
    ++checked;
  }
  // Every corpus instance must have a golden; catch silent drift.
  EXPECT_EQ(checked, corpus_files().size());
}

// --- differential oracle ------------------------------------------------

TEST(DifferentialOracle, SolversAgreeOnCorpus) {
  const std::vector<core::SolverChoice> solvers = {
      core::SolverChoice::Oll, core::SolverChoice::Lsu,
      core::SolverChoice::Stratified};
  for (const fs::path& file : corpus_files()) {
    const std::string text = slurp(file);
    const ft::FaultTree tree =
        format::parse_tree(text, {}, file.filename().string());

    const core::MpmcsPipeline reference{core::PipelineOptions{}};
    const core::MpmcsSolution ref = reference.solve(tree);
    ASSERT_EQ(ref.status, maxsat::MaxSatStatus::Optimal) << file;

    for (const core::SolverChoice solver : solvers) {
      core::PipelineOptions opts;
      opts.solver = solver;
      const core::MpmcsPipeline pipeline{opts};
      const core::MpmcsSolution sol = pipeline.solve(tree);
      ASSERT_EQ(sol.status, maxsat::MaxSatStatus::Optimal) << file;
      EXPECT_EQ(sol.scaled_cost, ref.scaled_cost)
          << file << " solver " << core::solver_choice_name(solver);
    }

    // Independent-semantics oracle for small instances.
    if (tree.num_events() <= 24) {
      bdd::FaultTreeBdd oracle(tree);
      const auto best = oracle.mpmcs();
      ASSERT_TRUE(best.has_value()) << file;
      EXPECT_NEAR(best->second, ref.probability,
                  std::abs(best->second) * 1e-9)
          << file;
    }
  }
}

// --- WCNF export --------------------------------------------------------

TEST(WcnfExport, HeaderDocumentsEncodingAndEventMap) {
  const ft::FaultTree tree =
      format::parse_tree(slurp(kCorpusDir / "fps_dsn2020.dft"), {},
                         "fps_dsn2020.dft");
  const std::string wcnf = format::export_wcnf(tree);
  EXPECT_NE(wcnf.find("c mpmcs4fta"), std::string::npos);
  EXPECT_NE(wcnf.find("c weight_scale"), std::string::npos);
  EXPECT_NE(wcnf.find("c events 7"), std::string::npos);
  EXPECT_NE(wcnf.find("\"x1\""), std::string::npos);
  EXPECT_NE(wcnf.find("p wcnf "), std::string::npos);
}

TEST(WcnfExport, ReImportedInstanceReproducesOptimum) {
  for (const fs::path& file : corpus_files()) {
    const ft::FaultTree tree =
        format::parse_tree(slurp(file), {}, file.filename().string());

    core::PipelineOptions opts;
    opts.solver = core::SolverChoice::Oll;
    opts.incremental = false;  // solve the raw imported instance as-is
    const core::MpmcsPipeline pipeline{opts};
    const core::MpmcsSolution direct = pipeline.solve(tree);
    ASSERT_EQ(direct.status, maxsat::MaxSatStatus::Optimal) << file;

    const maxsat::WcnfInstance imported =
        maxsat::from_wcnf_string(format::export_wcnf(tree, pipeline));
    const core::MpmcsSolution via_wcnf =
        pipeline.solve_prepared(tree, imported);
    ASSERT_EQ(via_wcnf.status, maxsat::MaxSatStatus::Optimal) << file;
    EXPECT_EQ(via_wcnf.scaled_cost, direct.scaled_cost) << file;
  }
}

// --- HTTP format negotiation --------------------------------------------

service::HttpRequest post_json(const std::string& path, std::string body) {
  service::HttpRequest r;
  r.method = "POST";
  r.path = path;
  r.body = std::move(body);
  return r;
}

std::string body_with_format(const std::string& tree_text,
                             const std::string& fmt) {
  std::string body = "{\"tenant\": \"fmt\", \"tree\": \"" +
                     util::json_escape(tree_text) + "\"";
  if (!fmt.empty()) body += ", \"format\": \"" + fmt + "\"";
  return body + "}";
}

TEST(ServiceFormat, SolvesEmbeddedGalileoAndOpenPsa) {
  service::ServiceOptions opts;
  opts.engine_threads = 2;
  service::SolveService svc(opts);
  const ft::FaultTree tree = gen::ladder_tree(3, 42);

  for (const auto& [text, fmt] :
       {std::make_pair(format::to_galileo(tree), std::string("galileo")),
        std::make_pair(format::to_open_psa(tree), std::string("openpsa")),
        std::make_pair(format::to_json(tree), std::string("json")),
        std::make_pair(format::to_galileo(tree), std::string("auto"))}) {
    const service::HttpResponse r =
        svc.handle(post_json("/v1/solve", body_with_format(text, fmt)));
    EXPECT_EQ(r.status, 200) << fmt << ": " << r.body;
    EXPECT_NE(r.body.find("\"optimal\""), std::string::npos) << fmt;
  }
}

TEST(ServiceFormat, MalformedBodiesAreClientErrorsNotServerErrors) {
  service::ServiceOptions opts;
  opts.engine_threads = 2;
  service::SolveService svc(opts);

  // Bad embedded documents, each under an explicit format.
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"toplevel T;\nT pand a b;\na prob=0.1;\nb prob=0.1;\n", "galileo"},
      {"toplevel T;\nT or a b\n", "galileo"},
      {"<opsa-mef><define-fault-tree>", "openpsa"},
      {"{\"nodes\": 3}", "json"},
      {"toplevel T;\nT or a b;\na prob=0.1;\nb prob=0.1;\n", "fortran"},
  };
  for (const auto& [text, fmt] : cases) {
    const service::HttpResponse r =
        svc.handle(post_json("/v1/solve", body_with_format(text, fmt)));
    EXPECT_EQ(r.status, 400) << fmt << ": " << r.body;
    EXPECT_LT(r.status, 500) << "parse failures must never be 5xx";
  }
  // The diagnostic surfaces the structured position for tooling.
  const service::HttpResponse r = svc.handle(post_json(
      "/v1/solve",
      body_with_format("toplevel T;\nT pand a b;\na prob=0.1;\n", "galileo")));
  EXPECT_EQ(r.status, 400);
  EXPECT_NE(r.body.find("line 2"), std::string::npos) << r.body;
}

}  // namespace
}  // namespace fta
