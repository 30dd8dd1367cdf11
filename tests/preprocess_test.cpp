#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/pipeline.hpp"
#include "format/format.hpp"
#include "ft/builder.hpp"
#include "ft/cut_set.hpp"
#include "ft/parser.hpp"
#include "gen/generator.hpp"
#include "maxsat/brute_force.hpp"
#include "preprocess/preprocess.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace fta::preprocess {
namespace {

using logic::Clause;
using logic::Lit;
using maxsat::MaxSatStatus;
using maxsat::WcnfInstance;

// --- technique-level unit tests -----------------------------------------

TEST(Preprocess, UnitPropagationFixesAndDischargesSofts) {
  WcnfInstance inst(4);
  inst.add_hard({Lit::pos(0)});                             // 0 = true
  inst.add_hard({Lit::neg(0), Lit::pos(1)});                // -> 1 = true
  inst.add_hard({Lit::neg(1), Lit::neg(2)});                // -> 2 = false
  inst.add_soft_unit(Lit::neg(1), 5);  // falsified: mandatory cost
  inst.add_soft_unit(Lit::neg(2), 7);  // satisfied: disappears
  inst.add_soft_unit(Lit::neg(3), 9);  // untouched

  const PreprocessResult r = preprocess(inst);
  EXPECT_FALSE(r.unsat);
  EXPECT_EQ(r.stats.fixed_vars, 3u);
  EXPECT_EQ(r.simplified.hard().size(), 0u);
  ASSERT_EQ(r.simplified.soft().size(), 1u);
  EXPECT_EQ(r.simplified.soft()[0].weight, 9u);
  EXPECT_EQ(r.cost_offset, 5u);

  std::vector<bool> model(4, false);
  r.reconstructor.extend(model);
  EXPECT_TRUE(model[0]);
  EXPECT_TRUE(model[1]);
  EXPECT_FALSE(model[2]);
}

TEST(Preprocess, UnsatAtLevelZero) {
  WcnfInstance inst(2);
  inst.add_hard({Lit::pos(0)});
  inst.add_hard({Lit::neg(0), Lit::pos(1)});
  inst.add_hard({Lit::neg(0), Lit::neg(1)});
  const PreprocessResult r = preprocess(inst);
  EXPECT_TRUE(r.unsat);
}

TEST(Preprocess, SubsumptionRemovesSupersetClauses) {
  PreprocessOptions opts;
  opts.bce = false;
  opts.bve = false;
  opts.equivalences = false;
  WcnfInstance inst(4);
  inst.add_hard({Lit::pos(0), Lit::pos(1)});
  inst.add_hard({Lit::pos(0), Lit::pos(1), Lit::pos(2)});   // subsumed
  inst.add_hard({Lit::pos(1), Lit::pos(2), Lit::neg(3)});
  // Freeze everything so only subsumption can act.
  const std::vector<bool> frozen(4, true);
  const PreprocessResult r = preprocess(inst, frozen, opts);
  EXPECT_EQ(r.stats.subsumed_clauses, 1u);
  EXPECT_EQ(r.simplified.hard().size(), 2u);
}

TEST(Preprocess, SelfSubsumingResolutionStrengthens) {
  PreprocessOptions opts;
  opts.bce = false;
  opts.bve = false;
  opts.equivalences = false;
  WcnfInstance inst(3);
  inst.add_hard({Lit::pos(0), Lit::pos(1)});
  // Resolving on 1 with the clause above leaves {0, 2}, which subsumes
  // this clause: literal ~1 is removed.
  inst.add_hard({Lit::pos(0), Lit::neg(1), Lit::pos(2)});
  const std::vector<bool> frozen(3, true);
  const PreprocessResult r = preprocess(inst, frozen, opts);
  EXPECT_GE(r.stats.strengthened_clauses, 1u);
  bool found = false;
  for (const Clause& c : r.simplified.hard()) {
    if (c == Clause{Lit::pos(0), Lit::pos(2)}) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Preprocess, EquivalentLiteralsCollapseOntoFrozenRep) {
  PreprocessOptions opts;
  opts.bce = false;
  opts.bve = false;
  WcnfInstance inst(3);
  // 0 <-> 1 (cycle) and 1 constrains 2 so the clauses survive UP.
  inst.add_hard({Lit::neg(0), Lit::pos(1)});
  inst.add_hard({Lit::neg(1), Lit::pos(0)});
  inst.add_hard({Lit::neg(1), Lit::pos(2)});
  inst.add_soft_unit(Lit::neg(0), 3);  // freezes var 0
  const PreprocessResult r = preprocess(inst, {}, opts);
  EXPECT_FALSE(r.unsat);
  EXPECT_EQ(r.stats.substituted_vars, 1u);
  // Var 1 must have been replaced by the frozen var 0 everywhere.
  for (const Clause& c : r.simplified.hard()) {
    for (const Lit l : c) EXPECT_NE(l.var(), 1u);
  }
  // A model of the simplified instance extends with model[1] == model[0].
  std::vector<bool> model(3, false);
  model[0] = true;
  r.reconstructor.extend(model);
  EXPECT_TRUE(model[1]);
}

TEST(Preprocess, ContradictoryEquivalenceIsUnsat) {
  WcnfInstance inst(2);
  // 0 <-> ~0 via var 1: (~0|1)(~1|~0)(0|1)(~1|0) forces both directions.
  inst.add_hard({Lit::neg(0), Lit::pos(1)});
  inst.add_hard({Lit::neg(1), Lit::neg(0)});
  inst.add_hard({Lit::pos(0), Lit::pos(1)});
  inst.add_hard({Lit::neg(1), Lit::pos(0)});
  const PreprocessResult r = preprocess(inst);
  EXPECT_TRUE(r.unsat);
}

TEST(Preprocess, BveEliminatesDefinitionalVariable) {
  PreprocessOptions opts;
  opts.bce = false;  // isolate BVE
  WcnfInstance inst(4);
  // 3 <-> (0 & 1), used once: classic eliminable Tseitin auxiliary.
  inst.add_hard({Lit::neg(3), Lit::pos(0)});
  inst.add_hard({Lit::neg(3), Lit::pos(1)});
  inst.add_hard({Lit::pos(3), Lit::neg(0), Lit::neg(1)});
  inst.add_hard({Lit::pos(3), Lit::pos(2)});
  for (logic::Var v : {0u, 1u, 2u}) inst.add_soft_unit(Lit::neg(v), 1);
  const PreprocessResult r = preprocess(inst, {}, opts);
  EXPECT_FALSE(r.unsat);
  EXPECT_GE(r.stats.eliminated_vars, 1u);
  for (const Clause& c : r.simplified.hard()) {
    for (const Lit l : c) EXPECT_NE(l.var(), 3u);
  }
  // Extend a model with 0 = 1 = true: the witness must set 3 = true.
  std::vector<bool> model{true, true, false, false};
  r.reconstructor.extend(model);
  EXPECT_TRUE(model[3]);
  // And with 0 = false, 2 = true: 3 must come back false.
  model = {false, true, true, true};
  r.reconstructor.extend(model);
  EXPECT_FALSE(model[3]);
}

TEST(Preprocess, BveUnitResolventsPropagateBeforeLaterWitnesses) {
  // Eliminating var 0 from (0|1),(~0|1) yields the unit resolvent {1}.
  // If that assignment is not propagated before the sweep continues,
  // var 2's elimination records (2|1) — still live — as a witness, and
  // reverse replay evaluates it with a stale value for var 1 (the Fixed
  // record, chronologically earlier, replays *after* the elimination),
  // producing a "reconstructed" model that violates (~2|3).
  PreprocessOptions opts;
  opts.bce = false;
  opts.subsumption = false;
  opts.equivalences = false;
  WcnfInstance inst(4);
  inst.add_hard({Lit::pos(0), Lit::pos(1)});
  inst.add_hard({Lit::neg(0), Lit::pos(1)});
  inst.add_hard({Lit::pos(2), Lit::pos(1)});
  inst.add_hard({Lit::neg(2), Lit::pos(3)});
  std::vector<bool> frozen(4, false);
  frozen[3] = true;
  const PreprocessResult r = preprocess(inst, frozen, opts);
  ASSERT_FALSE(r.unsat);
  for (const Clause& c : r.simplified.hard()) {
    for (const Lit l : c) EXPECT_EQ(l.var(), 3u);  // only the frozen var
  }
  std::vector<bool> model(4, false);  // a model of the simplified instance
  r.reconstructor.extend(model);
  EXPECT_TRUE(inst.satisfies_hard(model));
}

TEST(Preprocess, CancelledTokenStopsSimplificationSoundly) {
  WcnfInstance inst(4);
  inst.add_hard({Lit::neg(3), Lit::pos(0)});
  inst.add_hard({Lit::neg(3), Lit::pos(1)});
  inst.add_hard({Lit::pos(3), Lit::neg(0), Lit::neg(1)});
  inst.add_hard({Lit::pos(3), Lit::pos(2)});
  for (logic::Var v : {0u, 1u, 2u}) inst.add_soft_unit(Lit::neg(v), 1);
  auto cancel = std::make_shared<util::CancelToken>();
  cancel->cancel();
  const PreprocessResult r = preprocess(inst, {}, {}, cancel);
  // No simplification round ran, but the result is still a sound
  // instance — here the untouched original.
  EXPECT_EQ(r.stats.rounds, 0u);
  EXPECT_EQ(r.simplified.hard().size(), inst.hard().size());
  maxsat::BruteForceSolver oracle;
  const auto a = oracle.solve(inst);
  const auto b = oracle.solve(r.simplified);
  ASSERT_EQ(a.status, MaxSatStatus::Optimal);
  ASSERT_EQ(b.status, MaxSatStatus::Optimal);
  EXPECT_EQ(b.cost + r.cost_offset, a.cost);
}

TEST(Preprocess, FrozenVariablesAreNeverRemoved) {
  WcnfInstance inst(3);
  inst.add_hard({Lit::neg(2), Lit::pos(0)});
  inst.add_hard({Lit::neg(2), Lit::pos(1)});
  inst.add_hard({Lit::pos(2), Lit::neg(0), Lit::neg(1)});
  std::vector<bool> frozen(3, true);
  const PreprocessResult r = preprocess(inst, frozen);
  EXPECT_EQ(r.stats.eliminated_vars, 0u);
  EXPECT_EQ(r.stats.substituted_vars, 0u);
}

TEST(Preprocess, BlockedClauseRemovalIsModelRepairable) {
  PreprocessOptions opts;
  opts.bve = false;  // isolate BCE
  opts.subsumption = false;
  WcnfInstance inst(3);
  // Full Tseitin of 2 <-> (0 | 1) without asserting the root: the
  // reverse implications are blocked on the (non-frozen) gate literal.
  inst.add_hard({Lit::neg(2), Lit::pos(0), Lit::pos(1)});
  inst.add_hard({Lit::neg(0), Lit::pos(2)});
  inst.add_hard({Lit::neg(1), Lit::pos(2)});
  inst.add_soft_unit(Lit::neg(0), 1);
  inst.add_soft_unit(Lit::neg(1), 1);
  const PreprocessResult r = preprocess(inst, {}, opts);
  EXPECT_FALSE(r.unsat);
  EXPECT_GT(r.stats.blocked_clauses, 0u);
  // A simplified-space model may now violate a removed implication;
  // reconstruction must repair it. 0 = true with 2 = false violates
  // (~0 | 2) unless the blocked-clause replay flips var 2.
  std::vector<bool> model{true, false, false};
  r.reconstructor.extend(model);
  EXPECT_TRUE(inst.satisfies_hard(model));
}

// --- brute-force equivalence on random weighted instances ---------------

TEST(Preprocess, OptimalCostPreservedOnRandomWcnf) {
  util::Rng rng(0x9e3779b9);
  maxsat::BruteForceSolver oracle;
  int solved = 0;
  for (int round = 0; round < 60; ++round) {
    const std::uint32_t num_vars = 6 + rng.below(6);  // 6..11
    WcnfInstance inst(num_vars);
    const std::size_t num_clauses = 4 + rng.below(2 * num_vars);
    for (std::size_t i = 0; i < num_clauses; ++i) {
      Clause c;
      const std::size_t len = 2 + rng.below(2);
      for (std::size_t j = 0; j < len; ++j) {
        c.push_back(Lit::make(static_cast<logic::Var>(rng.below(num_vars)),
                              rng.chance(0.5)));
      }
      inst.add_hard(std::move(c));
    }
    // Soft units over a random subset (those variables end up frozen).
    for (logic::Var v = 0; v < num_vars; ++v) {
      if (rng.chance(0.6)) {
        inst.add_soft_unit(Lit::make(v, rng.chance(0.5)), 1 + rng.below(9));
      }
    }

    const maxsat::MaxSatResult raw = oracle.solve(inst);
    const PreprocessResult r = preprocess(inst);
    if (raw.status == MaxSatStatus::Unsatisfiable) {
      if (!r.unsat) {
        const maxsat::MaxSatResult simp = oracle.solve(r.simplified);
        EXPECT_EQ(simp.status, MaxSatStatus::Unsatisfiable) << "round " << round;
      }
      continue;
    }
    ASSERT_EQ(raw.status, MaxSatStatus::Optimal);
    ASSERT_FALSE(r.unsat) << "round " << round;
    const maxsat::MaxSatResult simp = oracle.solve(r.simplified);
    ASSERT_EQ(simp.status, MaxSatStatus::Optimal) << "round " << round;
    EXPECT_EQ(simp.cost + r.cost_offset, raw.cost) << "round " << round;

    // The reconstructed optimal model must satisfy the *original* hard
    // clauses at the same cost.
    std::vector<bool> model = simp.model;
    model.resize(num_vars, false);
    r.reconstructor.extend(model);
    EXPECT_TRUE(inst.satisfies_hard(model)) << "round " << round;
    EXPECT_EQ(inst.cost_of(model), raw.cost) << "round " << round;
    ++solved;
  }
  EXPECT_GT(solved, 20);  // the corpus must not be degenerate
}

// --- end-to-end differential: preprocessing on vs off -------------------

core::PipelineOptions with_preprocess(bool on) {
  core::PipelineOptions opts;
  opts.solver = core::SolverChoice::Oll;  // deterministic
  opts.preprocess = on;
  return opts;
}

void expect_equivalent(const ft::FaultTree& tree, const std::string& label) {
  const core::MpmcsPipeline off(with_preprocess(false));
  const core::MpmcsPipeline on(with_preprocess(true));
  const core::MpmcsSolution a = off.solve(tree);
  const core::MpmcsSolution b = on.solve(tree);
  ASSERT_EQ(a.status, b.status) << label;
  if (a.status != MaxSatStatus::Optimal) return;
  EXPECT_DOUBLE_EQ(a.probability, b.probability) << label;
  EXPECT_NEAR(a.log_cost, b.log_cost, 1e-9) << label;
  EXPECT_TRUE(ft::is_minimal_cut_set(tree, b.cut)) << label;
}

TEST(PreprocessDifferential, HundredGeneratedTrees) {
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    gen::GeneratorOptions opts;
    opts.num_events = 20 + seed % 30;
    opts.vote_fraction = seed % 3 == 0 ? 0.2 : 0.0;
    opts.sharing = seed % 2 == 0 ? 0.25 : 0.0;
    const ft::FaultTree tree = gen::random_tree(opts, seed);
    expect_equivalent(tree, "seed " + std::to_string(seed));
  }
}

TEST(PreprocessDifferential, StructuredShapes) {
  expect_equivalent(ft::fire_protection_system(), "fps");
  expect_equivalent(gen::chain_tree(200, 7), "chain200");
  expect_equivalent(gen::ladder_tree(12, 7), "ladder12");
}

TEST(PreprocessDifferential, ForcedEventsAreReconstructed) {
  // TOP = AND(e1, e2): unit propagation fixes both events at level 0 and
  // the whole instance evaporates; the cut must still come back {0, 1}
  // through the reconstructor (and cost through cost_offset).
  ft::FaultTreeBuilder b;
  const auto e1 = b.event("e1", 0.25);
  const auto e2 = b.event("e2", 0.5);
  b.top(b.and_("TOP", {e1, e2}));
  const ft::FaultTree tree = std::move(b).build();
  const core::MpmcsPipeline on(with_preprocess(true));
  const core::MpmcsSolution sol = on.solve(tree);
  ASSERT_EQ(sol.status, MaxSatStatus::Optimal);
  EXPECT_EQ(sol.cut, ft::CutSet({0, 1}));
  EXPECT_DOUBLE_EQ(sol.probability, 0.125);
}

TEST(PreprocessDifferential, TopKEnumerationMatches) {
  for (std::uint64_t seed : {3u, 11u, 42u}) {
    gen::GeneratorOptions opts;
    opts.num_events = 16;
    opts.sharing = 0.2;
    const ft::FaultTree tree = gen::random_tree(opts, seed);
    const core::MpmcsPipeline off(with_preprocess(false));
    const core::MpmcsPipeline on(with_preprocess(true));
    const auto a = off.top_k(tree, 5);
    const auto b = on.top_k(tree, 5);
    ASSERT_EQ(a.size(), b.size()) << "seed " << seed;
    for (std::size_t i = 0; i < a.size(); ++i) {
      // Probabilities must agree rank by rank (cut sets may differ only
      // under exact ties, which the generator's probabilities exclude).
      EXPECT_DOUBLE_EQ(a[i].probability, b[i].probability)
          << "seed " << seed << " rank " << i;
      EXPECT_TRUE(ft::is_minimal_cut_set(tree, b[i].cut)) << "seed " << seed;
    }
  }
}

TEST(PreprocessDifferential, ExampleTreeCorpus) {
#ifdef FTA_SOURCE_DIR
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(FTA_SOURCE_DIR) / "examples" / "trees";
  if (!fs::exists(dir)) GTEST_SKIP() << "examples/trees not found";
  int checked = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext != ".ft" && ext != ".xml" && ext != ".opsa") continue;
    std::ifstream in(entry.path());
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();
    const auto first = text.find_first_not_of(" \t\r\n");
    const ft::FaultTree tree =
        (first != std::string::npos && text[first] == '<')
            ? format::parse_tree(text, {format::TreeFormat::OpenPsa})
            : ft::parse_fault_tree(text);
    expect_equivalent(tree, entry.path().filename().string());
    ++checked;
  }
  EXPECT_GT(checked, 5);
#else
  GTEST_SKIP() << "FTA_SOURCE_DIR not defined";
#endif
}

TEST(PreprocessDifferential, PortfolioSolverAgrees) {
  // The racing portfolio (paper Step 5) over the preprocessed instance
  // must reproduce the paper's headline result.
  core::PipelineOptions opts;  // portfolio + preprocessing defaults
  const core::MpmcsPipeline pipeline(opts);
  const core::MpmcsSolution sol = pipeline.solve(ft::fire_protection_system());
  ASSERT_EQ(sol.status, MaxSatStatus::Optimal);
  EXPECT_EQ(sol.cut, ft::CutSet({0, 1}));
  EXPECT_NEAR(sol.probability, 0.02, 1e-12);
}

}  // namespace
}  // namespace fta::preprocess
