// Tests for the Open-PSA MEF reader (its XML subset and the MEF mapping)
// and writer.
#include <gtest/gtest.h>

#include "core/pipeline.hpp"
#include "format/format.hpp"
#include "ft/builder.hpp"
#include "gen/generator.hpp"
#include "logic/eval.hpp"
#include "util/rng.hpp"

namespace fta::ft {
namespace {

FaultTree parse_open_psa(const std::string& text) {
  return format::parse_tree(text, {format::TreeFormat::OpenPsa});
}

// ------------------------------------------------------------------ xml --

TEST(Xml, ParsesElementsAttributesAndNesting) {
  const FaultTree tree = parse_open_psa(
      "<?xml version=\"1.0\"?>\n"
      "<!-- a comment -->\n"
      "<opsa-mef x=\"1\" y='two'>\n"
      "  <label/>\n"
      "  <define-fault-tree name='t'><define-gate name=\"g\">"
      "<or><basic-event name='a'/><and><basic-event name=\"b\"/>"
      "<basic-event name=\"c\"/></and></or></define-gate>"
      "</define-fault-tree>\n"
      "</opsa-mef>\n");
  EXPECT_EQ(tree.node(tree.top()).name, "g");
  EXPECT_EQ(tree.num_events(), 3u);
  ASSERT_NE(tree.find("g#1"), kNoIndex);
  EXPECT_EQ(tree.node(tree.find("g#1")).type, NodeType::And);
}

TEST(Xml, EntityUnescaping) {
  const FaultTree tree = parse_open_psa(
      "<opsa-mef><define-fault-tree name=\"t\"><define-gate name=\"g\"><or>"
      "<basic-event name=\"&lt;&amp;&gt;&quot;&apos;\"/>"
      "<basic-event name=\"&unknown; &amp\"/></or></define-gate>"
      "</define-fault-tree></opsa-mef>");
  EXPECT_NE(tree.find("<&>\"'"), kNoIndex);
  // Unknown and unterminated entities are kept as written.
  EXPECT_NE(tree.find("&unknown; &amp"), kNoIndex);
  // The writer escapes what the reader unescapes.
  const FaultTree back = parse_open_psa(format::to_open_psa(tree));
  EXPECT_NE(back.find("<&>\"'"), kNoIndex);
}

TEST(Xml, TextContent) {
  // Character data is skipped wherever it appears.
  const FaultTree tree = parse_open_psa(
      "<opsa-mef>hello <define-fault-tree name=\"t\"> world <define-gate "
      "name=\"g\"><or> x &amp; > y <basic-event name=\"a\"/> z </or>"
      "</define-gate></define-fault-tree> tail </opsa-mef>");
  EXPECT_EQ(tree.num_events(), 1u);
}

TEST(Xml, RejectsMalformedDocuments) {
  for (const char* doc :
       {"", "<opsa-mef>", "<opsa-mef></b>", "<opsa-mef x=1/>",
        "<opsa-mef x=\"1\" x=\"2\"/>", "<opsa-mef/><b/>",
        "<opsa-mef><!-- unterminated </opsa-mef>"}) {
    EXPECT_THROW(parse_open_psa(doc), format::ParseError) << doc;
  }
}

TEST(Xml, ErrorsCarryLineNumbers) {
  try {
    parse_open_psa("<opsa-mef>\n<b>\n</c>\n</opsa-mef>");
    FAIL();
  } catch (const format::ParseError& e) {
    EXPECT_EQ(e.line(), 3u);
    EXPECT_EQ(e.column(), 4u);
  }
}

// -------------------------------------------------------------- open-psa --

const char* kFpsOpenPsa = R"(<?xml version="1.0"?>
<opsa-mef>
  <define-fault-tree name="FPS">
    <define-gate name="top">
      <or> <gate name="detection"/> <gate name="suppression"/> </or>
    </define-gate>
    <define-gate name="detection">
      <and> <basic-event name="x1"/> <basic-event name="x2"/> </and>
    </define-gate>
    <define-gate name="suppression">
      <or> <basic-event name="x3"/> <basic-event name="x4"/>
           <gate name="trigger"/> </or>
    </define-gate>
    <define-gate name="trigger">
      <and> <basic-event name="x5"/> <gate name="remote"/> </and>
    </define-gate>
    <define-gate name="remote">
      <or> <basic-event name="x6"/> <basic-event name="x7"/> </or>
    </define-gate>
  </define-fault-tree>
  <model-data>
    <define-basic-event name="x1"><float value="0.2"/></define-basic-event>
    <define-basic-event name="x2"><float value="0.1"/></define-basic-event>
    <define-basic-event name="x3"><float value="0.001"/></define-basic-event>
    <define-basic-event name="x4"><float value="0.002"/></define-basic-event>
    <define-basic-event name="x5"><float value="0.05"/></define-basic-event>
    <define-basic-event name="x6"><float value="0.1"/></define-basic-event>
    <define-basic-event name="x7"><float value="0.05"/></define-basic-event>
  </model-data>
</opsa-mef>
)";

TEST(OpenPsa, ParsesPaperExampleAndSolves) {
  const FaultTree tree = parse_open_psa(kFpsOpenPsa);
  EXPECT_EQ(tree.num_events(), 7u);
  EXPECT_EQ(tree.stats().gates, 5u);
  EXPECT_EQ(tree.node(tree.top()).name, "top");
  const auto sol = core::MpmcsPipeline().solve(tree);
  ASSERT_EQ(sol.status, maxsat::MaxSatStatus::Optimal);
  EXPECT_NEAR(sol.probability, 0.02, 1e-12);
  EXPECT_EQ(sol.cut.to_string(tree), "{x1, x2}");
}

TEST(OpenPsa, EquivalentToGalileoParse) {
  const FaultTree a = parse_open_psa(kFpsOpenPsa);
  const FaultTree b = fire_protection_system();
  logic::FormulaStore sa, sb;
  const auto fa = a.to_formula(sa);
  const auto fb = b.to_formula(sb);
  for (std::uint64_t mask = 0; mask < (1u << 7); ++mask) {
    std::vector<bool> assignment(7);
    for (std::uint32_t v = 0; v < 7; ++v) assignment[v] = (mask >> v) & 1;
    ASSERT_EQ(logic::eval(sa, fa, assignment),
              logic::eval(sb, fb, assignment))
        << mask;
  }
}

TEST(OpenPsa, AtLeastGate) {
  const FaultTree tree = parse_open_psa(R"(
<opsa-mef>
  <define-fault-tree name="t">
    <define-gate name="top">
      <atleast min="2">
        <basic-event name="a"/> <basic-event name="b"/>
        <basic-event name="c"/>
      </atleast>
    </define-gate>
  </define-fault-tree>
  <model-data>
    <define-basic-event name="a"><float value="0.1"/></define-basic-event>
  </model-data>
</opsa-mef>)");
  const auto& top = tree.node(tree.top());
  EXPECT_EQ(top.type, NodeType::Vote);
  EXPECT_EQ(top.k, 2u);
  // Undeclared events default to probability 0.
  EXPECT_DOUBLE_EQ(tree.node(tree.find("b")).probability, 0.0);
}

TEST(OpenPsa, GatesInAnyOrder) {
  const FaultTree tree = parse_open_psa(R"(
<opsa-mef>
  <define-fault-tree name="t">
    <define-gate name="top"> <or> <gate name="inner"/> </or> </define-gate>
    <define-gate name="inner">
      <and> <basic-event name="a"/> <basic-event name="b"/> </and>
    </define-gate>
  </define-fault-tree>
</opsa-mef>)");
  EXPECT_EQ(tree.node(tree.top()).name, "top");
  EXPECT_EQ(tree.num_events(), 2u);
}

TEST(OpenPsa, RejectsSemanticsErrors) {
  // Unsupported connective.
  EXPECT_THROW(parse_open_psa("<opsa-mef><define-fault-tree name=\"t\">"
                              "<define-gate name=\"g\"><xor>"
                              "<basic-event name=\"a\"/></xor></define-gate>"
                              "</define-fault-tree></opsa-mef>"),
               format::ParseError);
  // No gates at all.
  EXPECT_THROW(parse_open_psa(
                   "<opsa-mef><define-fault-tree name=\"t\"/></opsa-mef>"),
               format::ParseError);
  // Cycle.
  EXPECT_THROW(parse_open_psa(R"(
<opsa-mef><define-fault-tree name="t">
  <define-gate name="a"><or><gate name="b"/></or></define-gate>
  <define-gate name="b"><or><gate name="a"/></or></define-gate>
</define-fault-tree></opsa-mef>)"),
               format::ParseError);
  // Duplicate gate.
  EXPECT_THROW(parse_open_psa(R"(
<opsa-mef><define-fault-tree name="t">
  <define-gate name="a"><or><basic-event name="x"/></or></define-gate>
  <define-gate name="a"><or><basic-event name="y"/></or></define-gate>
</define-fault-tree></opsa-mef>)"),
               format::ParseError);
  // Bad probability payload.
  EXPECT_THROW(parse_open_psa(R"(
<opsa-mef><define-fault-tree name="t">
  <define-gate name="a"><or><basic-event name="x"/></or></define-gate>
</define-fault-tree>
<model-data><define-basic-event name="x"/></model-data></opsa-mef>)"),
               format::ParseError);
}

TEST(OpenPsa, RoundTrip) {
  const FaultTree original = fire_protection_system();
  const FaultTree back = parse_open_psa(format::to_open_psa(original, "FPS"));
  EXPECT_EQ(back.num_events(), original.num_events());
  EXPECT_EQ(back.stats().gates, original.stats().gates);
  for (EventIndex e = 0; e < original.num_events(); ++e) {
    const auto idx = back.find(original.event(e).name);
    ASSERT_NE(idx, kNoIndex);
    EXPECT_DOUBLE_EQ(back.node(idx).probability,
                     original.event_probability(e));
  }
  // Same MPMCS through the pipeline.
  const auto a = core::MpmcsPipeline().solve(original);
  const auto b = core::MpmcsPipeline().solve(back);
  EXPECT_NEAR(a.probability, b.probability, 1e-12);
}

TEST(OpenPsa, RoundTripGeneratedTreesWithVotes) {
  for (std::uint64_t seed = 60; seed < 70; ++seed) {
    gen::GeneratorOptions opts;
    opts.num_events = 20;
    opts.vote_fraction = 0.3;
    opts.min_children = 3;
    const auto original = gen::random_tree(opts, seed);
    const auto back = parse_open_psa(format::to_open_psa(original));
    logic::FormulaStore sa, sb;
    const auto fa = original.to_formula(sa);
    const auto fb = back.to_formula(sb);
    // Note: event order may differ; compare via names.
    ASSERT_EQ(back.num_events(), original.num_events());
    std::vector<EventIndex> remap(original.num_events());
    for (EventIndex e = 0; e < original.num_events(); ++e) {
      const auto idx = back.find(original.event(e).name);
      ASSERT_NE(idx, kNoIndex) << "seed " << seed;
      remap[e] = back.node(idx).event_index;
    }
    util::Rng rng(seed);
    for (int probe = 0; probe < 200; ++probe) {
      std::vector<bool> a_assign(original.num_events());
      std::vector<bool> b_assign(original.num_events());
      for (EventIndex e = 0; e < original.num_events(); ++e) {
        a_assign[e] = rng.chance(0.5);
        b_assign[remap[e]] = a_assign[e];
      }
      ASSERT_EQ(logic::eval(sa, fa, a_assign), logic::eval(sb, fb, b_assign))
          << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace fta::ft
