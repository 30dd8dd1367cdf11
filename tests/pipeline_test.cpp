#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "bdd/fta_bdd.hpp"
#include "core/pipeline.hpp"
#include "format/format.hpp"
#include "ft/builder.hpp"
#include "gen/generator.hpp"
#include "mocus/mocus.hpp"
#include "util/timer.hpp"

namespace fta::core {
namespace {

using maxsat::MaxSatStatus;

TEST(Pipeline, PaperHeadlineResult) {
  // §II: "the MPMCS is {x1, x2} with a joint probability of 0.02."
  const ft::FaultTree t = ft::fire_protection_system();
  for (const auto choice :
       {SolverChoice::Portfolio, SolverChoice::Oll, SolverChoice::FuMalik,
        SolverChoice::Lsu, SolverChoice::BruteForce}) {
    PipelineOptions opts;
    opts.solver = choice;
    const MpmcsPipeline pipeline(opts);
    const MpmcsSolution sol = pipeline.solve(t);
    ASSERT_EQ(sol.status, MaxSatStatus::Optimal) << solver_choice_name(choice);
    EXPECT_EQ(sol.cut, ft::CutSet({0, 1})) << solver_choice_name(choice);
    EXPECT_NEAR(sol.probability, 0.02, 1e-12) << solver_choice_name(choice);
    EXPECT_NEAR(sol.log_cost, -std::log(0.02), 1e-9);
  }
}

TEST(Pipeline, Table1LogWeights) {
  // Table I of the paper: w_i = -log p(x_i).
  const ft::FaultTree t = ft::fire_protection_system();
  const auto w = MpmcsPipeline::log_weights(t);
  const double expected[] = {1.60944, 2.30259, 6.90776, 6.21461,
                             2.99573, 2.30259, 2.99573};
  ASSERT_EQ(w.size(), 7u);
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_NEAR(w[i], expected[i], 5e-6) << "x" << i + 1;
  }
}

TEST(Pipeline, SolutionIsAlwaysMinimalCut) {
  const MpmcsPipeline pipeline;
  for (std::uint64_t seed = 500; seed < 520; ++seed) {
    gen::GeneratorOptions opts;
    opts.num_events = 14;
    opts.vote_fraction = 0.2;
    opts.sharing = 0.25;
    const auto tree = gen::random_tree(opts, seed);
    const auto sol = pipeline.solve(tree);
    ASSERT_EQ(sol.status, MaxSatStatus::Optimal) << "seed " << seed;
    EXPECT_TRUE(ft::is_minimal_cut_set(tree, sol.cut)) << "seed " << seed;
    EXPECT_NEAR(sol.probability, sol.cut.probability(tree), 1e-15);
  }
}

TEST(Pipeline, AgreesWithBddAndMocusBaselines) {
  // The central cross-validation: the MaxSAT pipeline, the BDD/ZBDD
  // argmax and exhaustive MOCUS scoring must report the same maximum
  // probability (sets may differ under exact ties).
  const MpmcsPipeline pipeline;
  for (std::uint64_t seed = 600; seed < 625; ++seed) {
    gen::GeneratorOptions opts;
    opts.num_events = 12;
    opts.vote_fraction = 0.15;
    opts.sharing = 0.2;
    const auto tree = gen::random_tree(opts, seed);

    const auto sat_sol = pipeline.solve(tree);
    ASSERT_EQ(sat_sol.status, MaxSatStatus::Optimal) << "seed " << seed;

    bdd::FaultTreeBdd analysis(tree);
    const auto bdd_sol = analysis.mpmcs();
    ASSERT_TRUE(bdd_sol.has_value()) << "seed " << seed;

    const auto mocus_sol = mocus::mpmcs_exhaustive(tree);
    ASSERT_TRUE(mocus_sol.has_value()) << "seed " << seed;

    // Probabilities agree across all three methods (weight scaling can
    // perturb the argmax only below ~1e-5 relative).
    EXPECT_NEAR(sat_sol.probability, bdd_sol->second,
                1e-5 * bdd_sol->second + 1e-15)
        << "seed " << seed;
    EXPECT_NEAR(bdd_sol->second, mocus_sol->second, 1e-12) << "seed " << seed;
  }
}

TEST(Pipeline, HandlesProbabilityOneEvents) {
  // p = 1 events have weight 0; the shrink pass must still return a
  // genuinely minimal cut.
  ft::FaultTree t;
  const auto a = t.add_basic_event("always", 1.0);
  const auto b = t.add_basic_event("b", 0.3);
  const auto c = t.add_basic_event("c", 0.2);
  const auto g1 = t.add_gate("G1", ft::NodeType::And, {a, b});
  const auto g2 = t.add_gate("G2", ft::NodeType::And, {b, c});
  t.set_top(t.add_gate("TOP", ft::NodeType::Or, {g1, g2}));
  const MpmcsPipeline pipeline;
  const auto sol = pipeline.solve(t);
  ASSERT_EQ(sol.status, MaxSatStatus::Optimal);
  // MCSs: {always, b} with p=0.3, {b, c} with p=0.06.
  EXPECT_EQ(sol.cut, ft::CutSet({0, 1}));
  EXPECT_NEAR(sol.probability, 0.3, 1e-12);
  EXPECT_TRUE(ft::is_minimal_cut_set(t, sol.cut));
}

TEST(Pipeline, HandlesProbabilityZeroEvents) {
  // p = 0 events are avoided unless structurally unavoidable.
  ft::FaultTree t;
  const auto never = t.add_basic_event("never", 0.0);
  const auto b = t.add_basic_event("b", 0.5);
  const auto g1 = t.add_gate("G1", ft::NodeType::And, {never, b});
  t.set_top(t.add_gate("TOP", ft::NodeType::Or, {g1, b}));
  const MpmcsPipeline pipeline;
  const auto sol = pipeline.solve(t);
  ASSERT_EQ(sol.status, MaxSatStatus::Optimal);
  EXPECT_EQ(sol.cut, ft::CutSet({1}));
  EXPECT_NEAR(sol.probability, 0.5, 1e-12);
}

TEST(Pipeline, UnavoidableZeroProbabilityEvent) {
  ft::FaultTree t;
  t.add_basic_event("never", 0.0);
  t.set_top(t.add_gate("TOP", ft::NodeType::Or, {0}));
  const MpmcsPipeline pipeline;
  const auto sol = pipeline.solve(t);
  ASSERT_EQ(sol.status, MaxSatStatus::Optimal);
  EXPECT_EQ(sol.cut, ft::CutSet({0}));
  EXPECT_EQ(sol.probability, 0.0);
  EXPECT_TRUE(std::isinf(sol.log_cost));
}

TEST(Pipeline, TopKOnPaperExample) {
  const ft::FaultTree t = ft::fire_protection_system();
  const MpmcsPipeline pipeline;
  const auto ranked = pipeline.top_k(t, 10);
  // Exactly the 5 MCSs, in descending probability order:
  // {x1,x2}=0.02, {x5,x6}=0.005, {x5,x7}=0.0025, {x4}=0.002, {x3}=0.001.
  ASSERT_EQ(ranked.size(), 5u);
  EXPECT_EQ(ranked[0].cut, ft::CutSet({0, 1}));
  EXPECT_NEAR(ranked[0].probability, 0.02, 1e-12);
  EXPECT_EQ(ranked[1].cut, ft::CutSet({4, 5}));
  EXPECT_NEAR(ranked[1].probability, 0.005, 1e-12);
  EXPECT_EQ(ranked[2].cut, ft::CutSet({4, 6}));
  EXPECT_NEAR(ranked[2].probability, 0.0025, 1e-12);
  EXPECT_EQ(ranked[3].cut, ft::CutSet({3}));
  EXPECT_NEAR(ranked[3].probability, 0.002, 1e-12);
  EXPECT_EQ(ranked[4].cut, ft::CutSet({2}));
  EXPECT_NEAR(ranked[4].probability, 0.001, 1e-12);
}

TEST(Pipeline, TopKMatchesBddRanking) {
  const MpmcsPipeline pipeline;
  for (std::uint64_t seed = 700; seed < 710; ++seed) {
    gen::GeneratorOptions opts;
    opts.num_events = 10;
    const auto tree = gen::random_tree(opts, seed);

    bdd::FaultTreeBdd analysis(tree);
    auto all = analysis.minimal_cut_sets();
    std::vector<double> probs;
    for (const auto& cs : all) probs.push_back(cs.probability(tree));
    std::sort(probs.rbegin(), probs.rend());

    const std::size_t k = std::min<std::size_t>(5, all.size());
    const auto ranked = pipeline.top_k(tree, k);
    ASSERT_EQ(ranked.size(), k) << "seed " << seed;
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_NEAR(ranked[i].probability, probs[i], 1e-5 * probs[i] + 1e-15)
          << "seed " << seed << " rank " << i;
      // Descending order.
      if (i > 0) {
        EXPECT_LE(ranked[i].probability,
                  ranked[i - 1].probability * (1 + 1e-9));
      }
    }
  }
}

TEST(Pipeline, TopKExhaustsAllCuts) {
  // Asking for more cuts than exist returns exactly the full family.
  ft::FaultTree t;
  t.add_basic_event("a", 0.5);
  t.add_basic_event("b", 0.4);
  t.set_top(t.add_gate("TOP", ft::NodeType::Or, {0, 1}));
  const MpmcsPipeline pipeline;
  const auto ranked = pipeline.top_k(t, 100);
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].cut, ft::CutSet({0}));
  EXPECT_EQ(ranked[1].cut, ft::CutSet({1}));
}

TEST(Pipeline, BuildInstanceShape) {
  const ft::FaultTree t = ft::fire_protection_system();
  const MpmcsPipeline pipeline;
  const auto inst = pipeline.build_instance(t);
  // One soft clause per event (all probabilities in (0,1)).
  EXPECT_EQ(inst.soft().size(), 7u);
  // All softs are unit negative literals on the event variables.
  for (const auto& s : inst.soft()) {
    ASSERT_EQ(s.lits.size(), 1u);
    EXPECT_TRUE(s.lits[0].negated());
    EXPECT_LT(s.lits[0].var(), 7u);
    EXPECT_GT(s.weight, 0u);
  }
  // Scaled Table-I weights: w1 = round(1e6 * 1.60944) etc.
  EXPECT_EQ(inst.soft()[0].weight, 1609438u);
  EXPECT_EQ(inst.soft()[1].weight, 2302585u);
}

TEST(Pipeline, WeightScaleOptionChangesResolution) {
  const ft::FaultTree t = ft::fire_protection_system();
  PipelineOptions coarse;
  coarse.weight_scale = 10;
  const auto inst = MpmcsPipeline(coarse).build_instance(t);
  EXPECT_EQ(inst.soft()[0].weight, 16u);  // round(10 * 1.60944)
}

TEST(Pipeline, JsonOutputContainsSolution) {
  const ft::FaultTree t = ft::fire_protection_system();
  const MpmcsPipeline pipeline;
  const auto sol = pipeline.solve(t);
  const std::string json = MpmcsPipeline::to_json(t, sol);
  EXPECT_NE(json.find("\"mpmcs\""), std::string::npos);
  EXPECT_NE(json.find("\"x1\""), std::string::npos);
  EXPECT_NE(json.find("\"probability\": 0.02"), std::string::npos);
}

TEST(Pipeline, MonolithicSolveReportsItsSatEffort) {
  // The per-solve effort counters are wired from the engine that answered
  // through Step 5 into the solution.
  PipelineOptions opts;
  opts.solver = SolverChoice::Oll;
  const auto tree = gen::ladder_tree(gen::LadderOptions{}, 42);
  const MpmcsSolution sol = MpmcsPipeline(opts).solve(tree);
  ASSERT_EQ(sol.status, MaxSatStatus::Optimal);
  EXPECT_GT(sol.sat_decisions + sol.sat_propagations, 0u);
}

TEST(Pipeline, ChainAndLadderFamilies) {
  const MpmcsPipeline pipeline;
  const auto chain = gen::chain_tree(60, 3);
  const auto chain_sol = pipeline.solve(chain);
  ASSERT_EQ(chain_sol.status, MaxSatStatus::Optimal);
  EXPECT_TRUE(ft::is_minimal_cut_set(chain, chain_sol.cut));

  const auto ladder = gen::ladder_tree(10, 4);
  const auto ladder_sol = pipeline.solve(ladder);
  ASSERT_EQ(ladder_sol.status, MaxSatStatus::Optimal);
  EXPECT_EQ(ladder_sol.cut.size(), 2u);  // a 2-of-3 pair
  EXPECT_TRUE(ft::is_minimal_cut_set(ladder, ladder_sol.cut));

  // Cross-check the ladder against the BDD argmax.
  bdd::FaultTreeBdd analysis(ladder);
  EXPECT_NEAR(ladder_sol.probability, analysis.mpmcs()->second,
              1e-5 * ladder_sol.probability);
}

TEST(Pipeline, MediumTreeUnderASecond) {
  // The §IV scalability claim in miniature (full sweep in bench/).
  gen::GeneratorOptions opts;
  opts.num_events = 1000;
  const auto tree = gen::random_tree(opts, 99);
  PipelineOptions popts;
  popts.solver = SolverChoice::Oll;
  const MpmcsPipeline pipeline(popts);
  const auto sol = pipeline.solve(tree);
  ASSERT_EQ(sol.status, MaxSatStatus::Optimal);
  EXPECT_TRUE(ft::is_minimal_cut_set(tree, sol.cut));
  EXPECT_LT(sol.total_seconds, 5.0);
}

// --- Step 5: hedge by escalation --------------------------------------------

// The escalation assertions hold the OLL lead to its 50 ms budget and the
// solve to its time limit; unoptimised and sanitizer builds run the same
// solves several times slower (under ThreadSanitizer a 1 s race returns
// after ~3.5 s, the portfolio choice included), so there only what does
// not depend on speed is checked.
#ifdef NDEBUG
constexpr bool kFullSpeed = true;
#else
constexpr bool kFullSpeed = false;
#endif

/// The ring: six 2-of-4 subsystems under a 2-of-6 top, each sharing one
/// event with each neighbour (18 events, fixed probabilities spread over
/// [0.01, 0.2]). No subsystem is a module, so the module pass leaves the
/// whole tree to Step 5, and no Step 5 solver proves its optimum within a
/// second at the default weight scale.
ft::FaultTree ring_of_votes() {
  constexpr std::uint32_t kSubsystems = 6;
  ft::FaultTreeBuilder b;
  const auto prob = [](std::uint32_t i) {
    return 0.01 + 0.19 * std::fmod((i + 1) * 0.6180339887498949, 1.0);
  };
  std::vector<ft::NodeIndex> shared;
  for (std::uint32_t i = 0; i < kSubsystems; ++i) {
    shared.push_back(b.event("s" + std::to_string(i), prob(i)));
  }
  std::vector<ft::NodeIndex> subsystems;
  for (std::uint32_t i = 0; i < kSubsystems; ++i) {
    std::vector<ft::NodeIndex> members{shared[i],
                                       shared[(i + 1) % kSubsystems]};
    for (std::uint32_t j = 0; j < 2; ++j) {
      members.push_back(b.event("e" + std::to_string(i) + "_" +
                                    std::to_string(j),
                                prob(kSubsystems + 2 * i + j)));
    }
    subsystems.push_back(b.vote("S" + std::to_string(i), 2, members));
  }
  b.top(b.vote("TOP", 2, subsystems));
  return std::move(b).build();
}

/// The models the default choice must answer without a hedge: every tree
/// of examples/trees/ and a 3k-event generated DAG.
std::vector<std::pair<std::string, ft::FaultTree>> lead_corpus() {
  std::vector<std::pair<std::string, ft::FaultTree>> out;
#ifdef FTA_SOURCE_DIR
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(FTA_SOURCE_DIR) / "examples" / "trees";
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path());
    std::ostringstream text;
    text << in.rdbuf();
    const std::string name = entry.path().filename().string();
    out.emplace_back(name, format::parse_tree(text.str(), {}, name));
  }
#endif
  gen::GeneratorOptions opts;
  opts.num_events = 3000;
  opts.sharing = 0.05;
  out.emplace_back("dag3000", gen::random_tree(opts, 3));
  return out;
}

TEST(Step5Escalation, DefaultLeadAnswersAloneAndMatchesPortfolio) {
  PipelineOptions race_opts;
  race_opts.solver = SolverChoice::Portfolio;
  const MpmcsPipeline lead;  // the default choice
  const MpmcsPipeline race(race_opts);
  ASSERT_EQ(lead.options().solver, SolverChoice::Auto);
  const auto corpus = lead_corpus();
  ASSERT_GE(corpus.size(), 10u);
  for (const auto& [name, tree] : corpus) {
    const std::uint64_t before = MpmcsPipeline::escalations();
    const MpmcsSolution a = lead.solve(tree);
    if (kFullSpeed) {
      EXPECT_EQ(MpmcsPipeline::escalations(), before) << name;
    }
    const MpmcsSolution b = race.solve(tree);
    ASSERT_EQ(a.status, MaxSatStatus::Optimal) << name;
    ASSERT_EQ(b.status, MaxSatStatus::Optimal) << name;
    EXPECT_EQ(a.scaled_cost, b.scaled_cost) << name;
    EXPECT_TRUE(ft::is_minimal_cut_set(tree, a.cut)) << name;
    // Closed-form trees are composed by the module pass; the rest are
    // answered by the lead.
    if (kFullSpeed) {
      EXPECT_TRUE(a.solver_name == "oll-inc" || a.solver_name == "lsu-inc" ||
                  a.solver_name == "stratified")
          << name << ": " << a.solver_name;
    }
  }
}

TEST(Step5Escalation, MonolithicAnswersComeFromTheStep35Instance) {
  // Step 5 solves one instance per artefact: the Step 3.5 one when
  // preprocessing ran, else the raw one. Only the module pass's composed
  // answers carry lineage "strata". A race answers with one of the
  // paper's four members, a held session's engines standing in for oll
  // and lsu.
  const std::set<std::string> session_race = {"oll-inc", "lsu-inc",
                                              "oll-strat", "fu-malik"};
  const std::set<std::string> stateless_race = {"oll", "oll-strat",
                                                "fu-malik", "lsu"};
  const auto corpus = lead_corpus();
  for (const auto choice :
       {SolverChoice::Auto, SolverChoice::Portfolio, SolverChoice::Oll}) {
    PipelineOptions opts;
    opts.solver = choice;
    for (const auto& [name, tree] : corpus) {
      if (name == "dag3000") continue;
      const MpmcsSolution sol = MpmcsPipeline(opts).solve(tree);
      ASSERT_EQ(sol.status, MaxSatStatus::Optimal) << name;
      if (sol.solver_name == "stratified") {
        EXPECT_EQ(choice, SolverChoice::Auto) << name;
        EXPECT_EQ(sol.lineage, "strata") << name;
      } else {
        EXPECT_EQ(sol.lineage, "pre")
            << name << " under " << solver_choice_name(choice);
      }
      if (choice == SolverChoice::Portfolio) {
        EXPECT_EQ(session_race.count(sol.solver_name), 1u)
            << name << ": " << sol.solver_name;
      }
    }
  }
  PipelineOptions stateless;
  stateless.solver = SolverChoice::Portfolio;
  stateless.incremental = false;
  for (const auto& [name, tree] : corpus) {
    if (name == "dag3000") continue;
    const MpmcsSolution sol = MpmcsPipeline(stateless).solve(tree);
    EXPECT_EQ(sol.lineage, "pre") << name;
    EXPECT_EQ(stateless_race.count(sol.solver_name), 1u)
        << name << ": " << sol.solver_name;
  }
  // The ring races (and runs out of its time limit): its incumbent comes
  // from the Step 3.5 instance too.
  PipelineOptions race;
  race.solver = SolverChoice::Portfolio;
  race.timeout_seconds = 0.5;
  const ft::FaultTree ring = ring_of_votes();
  const std::uint64_t before = MpmcsPipeline::escalations();
  const MpmcsSolution raced = MpmcsPipeline(race).solve(ring);
  EXPECT_EQ(MpmcsPipeline::escalations(), before + 1);
  EXPECT_EQ(raced.lineage, "pre");
  race.preprocess = false;
  EXPECT_EQ(MpmcsPipeline(race).solve(ring).lineage, "raw");
  for (const auto& [name, tree] : corpus) {
    if (name == "dag3000") continue;
    PipelineOptions raw;
    raw.solver = SolverChoice::Oll;
    raw.preprocess = false;
    EXPECT_EQ(MpmcsPipeline(raw).solve(tree).lineage, "raw") << name;
  }
}

TEST(Step5Escalation, PortfolioStartsItsHedgesOnEveryRace) {
  PipelineOptions opts;
  opts.solver = SolverChoice::Portfolio;
  const MpmcsPipeline pipeline(opts);
  const ft::FaultTree tree = ft::fire_protection_system();
  const PreparedInstance prepared = pipeline.prepare(tree);
  std::uint64_t before = MpmcsPipeline::escalations();
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(pipeline.solve_prepared(tree, prepared).status,
              MaxSatStatus::Optimal);
  }
  EXPECT_EQ(MpmcsPipeline::escalations(), before + 3);
  before = MpmcsPipeline::escalations();
  const auto top = pipeline.top_k(tree, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(MpmcsPipeline::escalations(), before + 3) << "one race per round";
}

TEST(Step5Escalation, TimeLimitBoundsLeadAndRaceOnEveryPath) {
  PipelineOptions opts;
  opts.timeout_seconds = 1.0;
  const MpmcsPipeline pipeline(opts);
  const ft::FaultTree tree = ring_of_votes();
  const double limit = kFullSpeed ? opts.timeout_seconds + 0.1 : 60.0;

  std::uint64_t before = MpmcsPipeline::escalations();
  util::Timer timer;
  const MpmcsSolution one_shot = pipeline.solve(tree);
  EXPECT_LT(timer.seconds(), limit) << "solve()";
  EXPECT_NE(one_shot.status, MaxSatStatus::Optimal);
  EXPECT_EQ(MpmcsPipeline::escalations(), before + 1) << "solve()";

  before = MpmcsPipeline::escalations();
  timer.reset();
  const PreparedInstance prepared = pipeline.prepare(tree);
  // Small instances are bounded too: the lead gets no exemption by size.
  ASSERT_LE(prepared.pre->simplified.num_vars(), 256u);
  const MpmcsSolution warm = pipeline.solve_prepared(tree, prepared);
  EXPECT_LT(timer.seconds(), limit) << "prepare() + solve_prepared()";
  EXPECT_NE(warm.status, MaxSatStatus::Optimal);
  EXPECT_EQ(MpmcsPipeline::escalations(), before + 1)
      << "prepare() + solve_prepared()";

  before = MpmcsPipeline::escalations();
  timer.reset();
  MaxSatStatus final_status = MaxSatStatus::Optimal;
  const auto top = pipeline.top_k(tree, 3, nullptr, &final_status);
  EXPECT_LT(timer.seconds(), limit) << "top_k";
  EXPECT_TRUE(top.empty());
  EXPECT_EQ(final_status, MaxSatStatus::Unknown);
  EXPECT_EQ(MpmcsPipeline::escalations(), before + 1) << "top_k";
}

TEST(Step5Escalation, TimeLimitBoundsSingleEngines) {
  // timeout_seconds bounds a single engine too, not only the race.
  PipelineOptions opts;
  opts.solver = SolverChoice::Oll;
  opts.timeout_seconds = 1.0;
  const ft::FaultTree tree = ring_of_votes();
  util::Timer timer;
  const MpmcsSolution sol = MpmcsPipeline(opts).solve(tree);
  if (kFullSpeed) {
    EXPECT_LT(timer.seconds(), 1.1);
  }
  if (sol.status == MaxSatStatus::Optimal) {
    EXPECT_TRUE(ft::is_minimal_cut_set(tree, sol.cut));
  }
}

TEST(Step5Escalation, Step35TimeIsReportedOnlyByTheCallThatRanIt) {
  gen::GeneratorOptions gopts;
  gopts.num_events = 200;
  gopts.sharing = 0.1;
  const ft::FaultTree tree = gen::random_tree(gopts, 11);
  for (const auto choice : {SolverChoice::Auto, SolverChoice::Portfolio}) {
    PipelineOptions opts;
    opts.solver = choice;
    const MpmcsPipeline pipeline(opts);
    const auto name = solver_choice_name(choice);
    const MpmcsSolution cold = pipeline.solve(tree);
    EXPECT_GT(cold.preprocess_seconds, 0.0) << name;
    EXPECT_LE(cold.preprocess_seconds, cold.total_seconds) << name;
    const MpmcsSolution wcnf =
        pipeline.solve_prepared(tree, pipeline.build_instance(tree));
    EXPECT_GT(wcnf.preprocess_seconds, 0.0) << name;
    EXPECT_LE(wcnf.preprocess_seconds, wcnf.total_seconds) << name;
    const PreparedInstance prepared = pipeline.prepare(tree);
    const MpmcsSolution warm = pipeline.solve_prepared(tree, prepared);
    EXPECT_EQ(warm.preprocess_seconds, 0.0) << name;
    for (const MpmcsSolution& round : pipeline.top_k(tree, 3)) {
      EXPECT_EQ(round.preprocess_seconds, 0.0) << name;
      EXPECT_LE(round.preprocess_seconds, round.total_seconds) << name;
    }
  }
  // A closed-form ladder runs no Step 3.5 at all.
  const ft::FaultTree ladder = gen::ladder_tree(4, 5);
  const MpmcsSolution composed = MpmcsPipeline().solve(ladder);
  ASSERT_EQ(composed.status, MaxSatStatus::Optimal);
  EXPECT_EQ(composed.preprocess_seconds, 0.0);
  EXPECT_LE(composed.solve_seconds, composed.total_seconds);
}

TEST(Step5Escalation, SolverNamesParseBothWays) {
  for (const auto choice :
       {SolverChoice::Auto, SolverChoice::Portfolio, SolverChoice::Oll,
        SolverChoice::FuMalik, SolverChoice::Lsu, SolverChoice::BruteForce}) {
    SolverChoice parsed = SolverChoice::Portfolio;
    ASSERT_TRUE(parse_solver_choice(solver_choice_name(choice), &parsed))
        << solver_choice_name(choice);
    EXPECT_EQ(parsed, choice);
  }
  SolverChoice parsed = SolverChoice::Portfolio;
  EXPECT_TRUE(parse_solver_choice("stratified", &parsed));
  EXPECT_EQ(parsed, SolverChoice::Auto) << "stratified is auto's alias";
  EXPECT_TRUE(parse_solver_choice("brute", &parsed));
  EXPECT_EQ(parsed, SolverChoice::BruteForce);
  EXPECT_FALSE(parse_solver_choice("fastest", &parsed));
  EXPECT_FALSE(parse_solver_choice("", &parsed));
  EXPECT_EQ(parsed, SolverChoice::BruteForce)
      << "a rejected name changes nothing";
}

}  // namespace
}  // namespace fta::core
