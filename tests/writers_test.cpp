#include <gtest/gtest.h>

#include <limits>

#include "ft/builder.hpp"
#include "ft/dot_writer.hpp"
#include "ft/json_writer.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace fta::ft {
namespace {

TEST(JsonWriter, ContainsAllNodes) {
  const FaultTree t = fire_protection_system();
  const std::string json = to_json(t);
  for (NodeIndex i = 0; i < t.num_nodes(); ++i) {
    EXPECT_NE(json.find('"' + t.node(i).name + '"'), std::string::npos)
        << "missing node " << t.node(i).name;
  }
  EXPECT_NE(json.find("\"top\": \"FPS_FAILS\""), std::string::npos);
}

TEST(JsonWriter, SolutionBlockMatchesPaperFig2) {
  const FaultTree t = fire_protection_system();
  JsonSolution sol;
  sol.mpmcs = CutSet({0, 1});
  sol.probability = 0.02;
  sol.log_cost = 3.912023;
  sol.solver = "oll";
  sol.solve_seconds = 0.001;
  const std::string json = to_json(t, sol);
  EXPECT_NE(json.find("\"mpmcs\""), std::string::npos);
  EXPECT_NE(json.find("\"probability\": 0.02"), std::string::npos);
  // Members of the cut are marked on their event nodes.
  EXPECT_NE(json.find("\"inMpmcs\": true"), std::string::npos);
}

TEST(JsonWriter, ProbabilityZeroSolutionStaysValidJson) {
  const FaultTree t = fire_protection_system();
  JsonSolution sol;
  sol.mpmcs = CutSet({0, 1});
  sol.probability = 0.0;
  sol.log_cost = std::numeric_limits<double>::infinity();
  const util::JsonValue doc = util::JsonValue::parse(to_json(t, sol));
  const util::JsonValue* block = doc.find("mpmcs");
  ASSERT_NE(block, nullptr);
  ASSERT_NE(block->find("logCost"), nullptr);
  EXPECT_TRUE(block->find("logCost")->is_null());
  EXPECT_EQ(util::json_number(0.25), "0.25");
  EXPECT_EQ(util::json_number(-std::numeric_limits<double>::infinity()),
            "null");
  EXPECT_EQ(util::json_number(std::numeric_limits<double>::quiet_NaN()),
            "null");
}

TEST(JsonWriter, BalancedBracketsAndQuotes) {
  const FaultTree t = fire_protection_system();
  JsonSolution sol;
  sol.mpmcs = CutSet({0, 1});
  sol.probability = 0.02;
  const std::string json = to_json(t, sol);
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (char c : json) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (c == '\\') {
      escaped = true;
      continue;
    }
    if (c == '"') in_string = !in_string;
    if (in_string) continue;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

TEST(JsonWriter, EscapesSpecialCharacters) {
  FaultTree t;
  t.add_basic_event("weird\"name", 0.5);
  t.set_top(t.add_gate("G", NodeType::Or, {0}));
  const std::string json = to_json(t);
  EXPECT_NE(json.find("weird\\\"name"), std::string::npos);
}

TEST(JsonWriter, CompactModeHasNoNewlines) {
  const FaultTree t = fire_protection_system();
  const std::string json = to_json(t, std::nullopt, 0);
  // Only the single trailing newline.
  EXPECT_EQ(std::count(json.begin(), json.end(), '\n'), 1);
}

TEST(DotWriter, ContainsNodesAndEdges) {
  const FaultTree t = fire_protection_system();
  const std::string dot = to_dot(t);
  EXPECT_NE(dot.find("digraph fault_tree"), std::string::npos);
  EXPECT_NE(dot.find("x1"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
  // Gate fan-ins in the FPS tree: 2+2+2+3+2 = 11 edges.
  std::size_t edges = 0;
  for (std::size_t pos = 0; (pos = dot.find("->", pos)) != std::string::npos;
       ++pos) {
    ++edges;
  }
  EXPECT_EQ(edges, 11u);
}

TEST(DotWriter, HighlightsCut) {
  const FaultTree t = fire_protection_system();
  const std::string plain = to_dot(t);
  const std::string marked = to_dot(t, CutSet({0, 1}));
  EXPECT_EQ(plain.find("#ff8888"), std::string::npos);
  EXPECT_NE(marked.find("#ff8888"), std::string::npos);
}

TEST(DotWriter, VoteGateLabel) {
  FaultTree t;
  const auto a = t.add_basic_event("a", 0.1);
  const auto b = t.add_basic_event("b", 0.1);
  const auto c = t.add_basic_event("c", 0.1);
  t.set_top(t.add_vote_gate("V", 2, {a, b, c}));
  EXPECT_NE(to_dot(t).find("2/3"), std::string::npos);
}

}  // namespace
}  // namespace fta::ft
