// Tests for the library extensions layered over the paper's method:
// stratified OLL, the module pass, the explicit success-tree artefact,
// and the RAW/RRW importance measures.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/importance.hpp"
#include "analysis/quantitative.hpp"
#include "bdd/fta_bdd.hpp"
#include "core/pipeline.hpp"
#include "ft/builder.hpp"
#include "gen/generator.hpp"
#include "logic/eval.hpp"
#include "maxsat/brute_force.hpp"
#include "maxsat/oll.hpp"
#include "mocus/mocus.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace fta {
namespace {

// ----------------------------------------------------- stratified OLL --

TEST(StratifiedOll, MatchesPlainOllOnRandomWcnf) {
  util::Rng rng(424242);
  for (int round = 0; round < 25; ++round) {
    const auto num_vars = static_cast<std::uint32_t>(4 + rng.below(8));
    maxsat::WcnfInstance inst(num_vars);
    for (std::size_t i = 0; i < num_vars * 2; ++i) {
      logic::Clause c;
      const std::size_t len = 1 + rng.below(3);
      for (std::size_t j = 0; j < len; ++j) {
        c.push_back(logic::Lit::make(
            static_cast<logic::Var>(rng.below(num_vars)), rng.chance(0.5)));
      }
      inst.add_hard(std::move(c));
    }
    for (std::size_t i = 0; i < 6; ++i) {
      // Wide weight spread exercises the strata schedule.
      inst.add_soft_unit(logic::Lit::make(
                             static_cast<logic::Var>(rng.below(num_vars)),
                             rng.chance(0.5)),
                         1 + rng.below(1'000'000));
    }
    maxsat::OllSolver plain;
    maxsat::OllOptions oll_opts;
    oll_opts.stratified = true;
    maxsat::OllSolver strat(oll_opts);
    const auto a = plain.solve(inst);
    const auto b = strat.solve(inst);
    ASSERT_EQ(a.status, b.status) << "round " << round;
    if (a.status == maxsat::MaxSatStatus::Optimal) {
      EXPECT_EQ(a.cost, b.cost) << "round " << round;
      EXPECT_EQ(inst.cost_of(b.model), b.cost);
    }
  }
}

TEST(StratifiedOll, MatchesBruteForce) {
  util::Rng rng(515151);
  for (int round = 0; round < 15; ++round) {
    const auto num_vars = static_cast<std::uint32_t>(4 + rng.below(6));
    maxsat::WcnfInstance inst(num_vars);
    for (std::size_t i = 0; i < num_vars * 3; ++i) {
      logic::Clause c;
      for (std::size_t j = 0; j < 1 + rng.below(3); ++j) {
        c.push_back(logic::Lit::make(
            static_cast<logic::Var>(rng.below(num_vars)), rng.chance(0.5)));
      }
      inst.add_hard(std::move(c));
    }
    for (std::size_t i = 0; i < 5; ++i) {
      inst.add_soft_unit(logic::Lit::make(
                             static_cast<logic::Var>(rng.below(num_vars)),
                             rng.chance(0.5)),
                         1 + rng.below(100));
    }
    maxsat::BruteForceSolver oracle;
    maxsat::OllOptions oll_opts;
    oll_opts.stratified = true;
    maxsat::OllSolver strat(oll_opts);
    const auto expected = oracle.solve(inst);
    const auto got = strat.solve(inst);
    ASSERT_EQ(got.status, expected.status) << "round " << round;
    if (expected.status == maxsat::MaxSatStatus::Optimal) {
      EXPECT_EQ(got.cost, expected.cost) << "round " << round;
    }
  }
}

TEST(StratifiedOll, SolvesPaperExampleThroughPipeline) {
  // The default portfolio contains the stratified member; also drive it
  // directly through a custom single-member check.
  const ft::FaultTree t = ft::fire_protection_system();
  const auto inst = core::MpmcsPipeline().build_instance(t);
  maxsat::OllOptions oll_opts;
  oll_opts.stratified = true;
  maxsat::OllSolver strat(oll_opts);
  const auto r = strat.solve(inst);
  ASSERT_EQ(r.status, maxsat::MaxSatStatus::Optimal);
  EXPECT_TRUE(r.model[0]);
  EXPECT_TRUE(r.model[1]);
}

// ---------------------------------------------------------- module pass --

TEST(ModulePass, MatchesMonolithicOnLadders) {
  // Ladders are closed-form all the way down: the default composes them
  // without search, and agrees with the monolithic OLL.
  core::PipelineOptions mono;
  mono.solver = core::SolverChoice::Oll;
  for (const std::uint32_t subsystems : {1u, 3u, 10u, 40u}) {
    const auto tree = gen::ladder_tree(subsystems, subsystems + 5);
    const auto a = core::MpmcsPipeline(mono).solve(tree);
    const auto b = core::MpmcsPipeline().solve(tree);
    ASSERT_EQ(a.status, maxsat::MaxSatStatus::Optimal);
    ASSERT_EQ(b.status, maxsat::MaxSatStatus::Optimal);
    EXPECT_EQ(a.scaled_cost, b.scaled_cost) << subsystems << " subsystems";
    EXPECT_NEAR(a.probability, b.probability, 1e-12 + 1e-9 * a.probability)
        << subsystems << " subsystems";
    EXPECT_TRUE(ft::is_minimal_cut_set(tree, b.cut));
    EXPECT_EQ(b.solver_name, "stratified");
    EXPECT_EQ(b.lineage, "strata");
  }
}

TEST(ModulePass, MatchesMonolithicOnRandomTrees) {
  // Shared events and votes: some tops are closed-form over frontier
  // modules, some are frontier modules themselves.
  core::PipelineOptions mono;
  mono.solver = core::SolverChoice::Oll;
  int composed_seen = 0;
  for (std::uint64_t seed = 900; seed < 925; ++seed) {
    gen::GeneratorOptions gopts;
    gopts.num_events = 12;
    gopts.sharing = 0.3;  // children may share events: the tricky case
    gopts.vote_fraction = 0.15;
    const auto tree = gen::random_tree(gopts, seed);
    const auto a = core::MpmcsPipeline(mono).solve(tree);
    const auto b = core::MpmcsPipeline().solve(tree);
    ASSERT_EQ(a.status, maxsat::MaxSatStatus::Optimal) << "seed " << seed;
    ASSERT_EQ(b.status, maxsat::MaxSatStatus::Optimal) << "seed " << seed;
    EXPECT_EQ(a.scaled_cost, b.scaled_cost) << "seed " << seed;
    EXPECT_NEAR(a.probability, b.probability, 1e-12 + 1e-9 * a.probability)
        << "seed " << seed;
    EXPECT_TRUE(ft::is_minimal_cut_set(tree, b.cut)) << "seed " << seed;
    if (b.lineage == "strata") ++composed_seen;
  }
  EXPECT_GT(composed_seen, 0) << "sweep never hit a closed-form top";
}

TEST(ModulePass, FrontierTopKeepsTheMonolithicPath) {
  // Event e feeds both children of the top: no child is a module, so the
  // whole tree is one instance, as in the paper.
  ft::FaultTree t;
  const auto e = t.add_basic_event("e", 0.1);
  const auto a = t.add_basic_event("a", 0.5);
  const auto b = t.add_basic_event("b", 0.4);
  const auto g1 = t.add_gate("G1", ft::NodeType::And, {e, a});
  const auto g2 = t.add_gate("G2", ft::NodeType::And, {e, b});
  t.set_top(t.add_gate("TOP", ft::NodeType::Or, {g1, g2}));
  const core::MpmcsPipeline pipeline;
  const core::PreparedInstance prepared = pipeline.prepare(t);
  EXPECT_EQ(prepared.strata, nullptr);
  ASSERT_NE(prepared.session, nullptr);
  const auto sol = pipeline.solve_prepared(t, prepared);
  ASSERT_EQ(sol.status, maxsat::MaxSatStatus::Optimal);
  EXPECT_EQ(sol.cut, ft::CutSet({0, 1}));
  EXPECT_NE(sol.lineage, "strata");
}

TEST(ModulePass, TopKDeepensOnlyTheModulesItTakes) {
  // An OR over twelve frontier modules, each an AND of five ORs over a
  // ring of five events (neighbouring ORs share one, so no inner gate is
  // a module; each module has five minimal cut sets). Top-4 takes four
  // cuts in all, so after one cut from every module only the modules
  // those four come from are asked for more.
  util::Rng rng(4242);
  ft::FaultTreeBuilder b;
  std::vector<ft::NodeIndex> modules;
  for (int m = 0; m < 12; ++m) {
    const std::string p = "m" + std::to_string(m);
    std::vector<ft::NodeIndex> events, terms;
    for (int e = 0; e < 5; ++e) {
      events.push_back(
          b.event(p + "e" + std::to_string(e), rng.uniform(0.02, 0.4)));
    }
    for (int t = 0; t < 5; ++t) {
      terms.push_back(b.or_(p + "c" + std::to_string(t),
                            {events[t], events[(t + 1) % 5]}));
    }
    modules.push_back(b.and_(p, terms));
  }
  b.top(b.or_("TOP", modules));
  const ft::FaultTree tree = std::move(b).build();

  const core::MpmcsPipeline pipeline;
  const core::PreparedInstance prepared = pipeline.prepare(tree);
  ASSERT_NE(prepared.strata, nullptr);
  ASSERT_EQ(prepared.strata->strata.size(), 12u);
  constexpr std::size_t k = 4;
  const auto top = pipeline.top_k_prepared(tree, prepared, k);
  core::PipelineOptions mono;
  mono.solver = core::SolverChoice::Portfolio;
  const auto expected = core::MpmcsPipeline(mono).top_k(tree, k);
  ASSERT_EQ(top.size(), expected.size());
  for (std::size_t i = 0; i < top.size(); ++i) {
    EXPECT_EQ(top[i].scaled_cost, expected[i].scaled_cost) << "rank " << i;
    EXPECT_TRUE(ft::is_minimal_cut_set(tree, top[i].cut)) << "rank " << i;
  }
  std::uint64_t rounds = 0;
  for (const maxsat::StratifiedStratum& s : prepared.strata->strata) {
    ASSERT_NE(s.prepared->session, nullptr);
    rounds += s.prepared->session->stats().solves;
  }
  // Enumerating every module to depth k would take 48 rounds.
  EXPECT_LE(rounds, 12u + 2 * k);
}

TEST(ModulePass, PaperExample) {
  const auto sol = core::MpmcsPipeline().solve(ft::fire_protection_system());
  ASSERT_EQ(sol.status, maxsat::MaxSatStatus::Optimal);
  EXPECT_EQ(sol.cut, ft::CutSet({0, 1}));
  EXPECT_NEAR(sol.probability, 0.02, 1e-12);
  EXPECT_EQ(sol.solver_name, "stratified");
}

// -------------------------------------------------- success tree (Step 1) --

TEST(SuccessTree, PaperEquationY) {
  // Y(t) = (y1 | y2) & (y3 & y4 & (y5 | (y6 & y7))) with y_i positive.
  logic::FormulaStore store;
  const ft::FaultTree t = ft::fire_protection_system();
  const auto y = core::MpmcsPipeline::success_tree(store, t);
  EXPECT_TRUE(store.is_monotone(y));
  std::vector<logic::NodeId> v;
  for (logic::Var i = 0; i < 7; ++i) v.push_back(store.var(i));
  const auto expected = store.land(
      {store.lor({v[0], v[1]}),
       store.land({v[2], v[3], store.lor({v[4], store.land({v[5], v[6]})})})});
  EXPECT_EQ(y, expected);
}

TEST(SuccessTree, ComplementSemantics) {
  // X(t) = ¬f(t): Y with flipped inputs equals the negation of f.
  util::Rng rng(606060);
  for (int round = 0; round < 20; ++round) {
    gen::GeneratorOptions gopts;
    gopts.num_events = static_cast<std::uint32_t>(3 + rng.below(6));
    gopts.vote_fraction = 0.2;
    const auto tree = gen::random_tree(gopts, 7000 + static_cast<std::uint64_t>(round));
    logic::FormulaStore store;
    const auto f = tree.to_formula(store);
    const auto y = core::MpmcsPipeline::success_tree(store, tree);
    const auto n = static_cast<std::uint32_t>(tree.num_events());
    for (std::uint64_t mask = 0; mask < (1ULL << n); ++mask) {
      std::vector<bool> a(n), flipped(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        a[i] = (mask >> i) & 1;
        flipped[i] = !a[i];
      }
      ASSERT_EQ(logic::eval(store, y, flipped), !logic::eval(store, f, a))
          << "round " << round << " mask " << mask;
    }
  }
}

// ----------------------------------------------------------- RAW / RRW --

TEST(RawRrw, PaperExampleValues) {
  const ft::FaultTree t = ft::fire_protection_system();
  const auto mcs = mocus::mocus(t);
  const auto measures = analysis::importance_measures(t, mcs.cut_sets);
  const double p_top = analysis::top_event_probability(t);
  ft::FaultTree pinned = t;
  for (const auto& m : measures) {
    const double orig = t.event_probability(m.event);
    pinned.set_event_probability(m.event, 1.0);
    const double p1 = analysis::top_event_probability(pinned);
    pinned.set_event_probability(m.event, 0.0);
    const double p0 = analysis::top_event_probability(pinned);
    pinned.set_event_probability(m.event, orig);
    EXPECT_NEAR(m.raw, p1 / p_top, 1e-9);
    EXPECT_NEAR(m.rrw, p_top / p0, 1e-9);
    EXPECT_GE(m.raw, 1.0 - 1e-12);  // occurrence can only raise risk
    EXPECT_GE(m.rrw, 1.0 - 1e-12);  // removal can only lower risk
  }
}

TEST(RawRrw, SpofDominatesRrw) {
  // Removing a single point of failure removes whole cut sets: its RRW
  // exceeds that of any event appearing only in 2-event cuts.
  const ft::FaultTree t = ft::fire_protection_system();
  const auto mcs = mocus::mocus(t);
  const auto measures = analysis::importance_measures(t, mcs.cut_sets);
  // x4 (SPOF with p=0.002) vs x7 (only in {x5,x7}).
  EXPECT_GT(measures[3].raw, measures[6].raw * 0.99);
}

// ------------------------------------------------- end-to-end coherence --

TEST(Extensions, ModulePassPortfolioAllAgree) {
  for (std::uint64_t seed = 1000; seed < 1012; ++seed) {
    gen::GeneratorOptions gopts;
    gopts.num_events = 15;
    gopts.vote_fraction = 0.2;
    gopts.sharing = 0.2;
    const auto tree = gen::random_tree(gopts, seed);

    std::vector<core::PipelineOptions> configs(3);
    configs[0].solver = core::SolverChoice::Portfolio;
    configs[1].solver = core::SolverChoice::Auto;
    configs[2].solver = core::SolverChoice::Lsu;

    bdd::FaultTreeBdd baseline(tree);
    const double expected = baseline.mpmcs()->second;
    for (std::size_t i = 0; i < configs.size(); ++i) {
      const auto sol = core::MpmcsPipeline(configs[i]).solve(tree);
      ASSERT_EQ(sol.status, maxsat::MaxSatStatus::Optimal)
          << "seed " << seed << " config " << i;
      EXPECT_NEAR(sol.probability, expected, 1e-5 * expected + 1e-15)
          << "seed " << seed << " config " << i;
    }
  }
}

}  // namespace
}  // namespace fta
