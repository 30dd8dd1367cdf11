// Differential coverage for the incremental MaxSAT layer: the persistent
// SAT session (sat/solver selectors + maxsat/incremental) must be
// observationally equivalent to fresh-solver solving — identical optimal
// costs on generated corpora, the example trees, top-k enumeration and
// repeated re-solves — while actually reusing state (fewer SAT calls,
// session stats advancing).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "core/pipeline.hpp"
#include "engine/analysis_engine.hpp"
#include "engine/tree_cache.hpp"
#include "format/format.hpp"
#include "ft/builder.hpp"
#include "ft/cut_set.hpp"
#include "ft/parser.hpp"
#include "gen/generator.hpp"
#include "logic/eval.hpp"
#include "maxsat/assumption_buffer.hpp"
#include "maxsat/brute_force.hpp"
#include "maxsat/incremental.hpp"
#include "maxsat/oll.hpp"
#include "sat/solver.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace fta {
namespace {

using logic::Lit;
using maxsat::MaxSatStatus;
using maxsat::WcnfInstance;

// --- sat-level retractable layer ----------------------------------------

TEST(SatSession, RetractableClausesBindOnlyUnderSelector) {
  sat::Solver solver;
  const logic::Var x = solver.new_var();
  const Lit s = solver.new_selector();
  ASSERT_TRUE(solver.add_retractable_clause({Lit::neg(x)}, s));
  ASSERT_TRUE(solver.add_clause({Lit::pos(x)}));

  // Without the selector the guarded (~x) is vacuous.
  EXPECT_EQ(solver.solve(), sat::SolveResult::Sat);
  EXPECT_TRUE(solver.model()[x]);
  // Assuming the selector activates it: conflict with the unit (x).
  const Lit assume[] = {s};
  EXPECT_EQ(solver.solve(assume), sat::SolveResult::Unsat);
  ASSERT_FALSE(solver.unsat_core().empty());
  // The final core names the selector, not some internal literal.
  EXPECT_EQ(solver.unsat_core().front(), s);

  // Retired: the same assumption no longer conflicts, and the solver
  // stays usable.
  solver.retire_selector(s);
  EXPECT_EQ(solver.solve(assume), sat::SolveResult::Unsat);  // ~s forced
  EXPECT_EQ(solver.solve(), sat::SolveResult::Sat);
  EXPECT_TRUE(solver.model()[x]);
}

TEST(SatSession, RetireSelectorPurgesGuardedClauses) {
  sat::Solver solver;
  solver.ensure_vars(6);
  const Lit s = solver.new_selector();
  // A handful of wide guarded clauses plus one unguarded one.
  ASSERT_TRUE(solver.add_clause({Lit::pos(0), Lit::pos(1)}));
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(solver.add_retractable_clause(
        {Lit::neg(0), Lit::neg(1), Lit::pos(static_cast<logic::Var>(2 + i))},
        s));
  }
  const std::uint64_t removed_before = solver.stats().removed_clauses;
  solver.retire_selector(s);
  EXPECT_GE(solver.stats().removed_clauses, removed_before + 4);
  EXPECT_EQ(solver.solve(), sat::SolveResult::Sat);
}

TEST(SatSession, MemoryFootprintIsReported) {
  sat::Solver solver;
  solver.ensure_vars(3);
  EXPECT_GT(solver.memory_bytes(), 0u);
}

// --- assumption buffer ---------------------------------------------------

TEST(AssumptionBuffer, StableOrderAndCompaction) {
  maxsat::AssumptionBuffer buf;
  buf.add(Lit::pos(0), 5);
  buf.add(Lit::pos(1), 3);
  buf.add(Lit::pos(2), 3);
  buf.add(Lit::pos(1), 2);  // merge
  EXPECT_EQ(buf.size(), 3u);
  EXPECT_EQ(buf.weight(Lit::pos(1)), 5u);

  const Lit charge1[] = {Lit::pos(0), Lit::pos(2)};
  buf.charge(charge1, 3);
  // pos(2) exhausted; order of survivors unchanged.
  ASSERT_EQ(buf.size(), 2u);
  EXPECT_EQ(buf.assumptions()[0], Lit::pos(0));
  EXPECT_EQ(buf.assumptions()[1], Lit::pos(1));
  EXPECT_EQ(buf.weight(Lit::pos(0)), 2u);
  EXPECT_FALSE(buf.contains(Lit::pos(2)));

  buf.add(Lit::pos(2), 7);  // re-enters at the back
  EXPECT_EQ(buf.assumptions().back(), Lit::pos(2));
}

// --- incremental evaluator ----------------------------------------------

TEST(IncrementalEvaluator, MatchesFullEvalUnderRandomFlips) {
  util::Rng rng(0xe7a1);
  for (int round = 0; round < 30; ++round) {
    logic::FormulaStore store;
    const std::uint32_t num_vars = 4 + round % 8;
    const logic::NodeId root =
        test::random_monotone_formula(rng, store, num_vars);
    std::vector<bool> assignment(num_vars, false);
    for (std::uint32_t v = 0; v < num_vars; ++v) {
      assignment[v] = rng.chance(0.5);
    }
    logic::IncrementalEvaluator inc(store, root, assignment);
    ASSERT_EQ(inc.value(), logic::eval(store, root, assignment));
    for (int flip = 0; flip < 40; ++flip) {
      const auto v = static_cast<logic::Var>(rng.below(num_vars));
      assignment[v] = !assignment[v];
      inc.set(v, assignment[v]);
      ASSERT_EQ(inc.value(), logic::eval(store, root, assignment))
          << "round " << round << " flip " << flip;
    }
  }
}

TEST(ShrinkContext, MatchesOneShotShrink) {
  util::Rng rng(0x5511);
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    gen::GeneratorOptions opts;
    opts.num_events = 18;
    opts.sharing = 0.3;
    const ft::FaultTree tree = gen::random_tree(opts, seed);
    const ft::ShrinkContext ctx(tree);
    // Shrink the full event set (always a cut set for a monotone tree
    // whose top fires when everything fails) and random supersets.
    std::vector<ft::EventIndex> all(tree.num_events());
    for (ft::EventIndex e = 0; e < tree.num_events(); ++e) all[e] = e;
    const ft::CutSet shrunk = ctx.shrink(tree, ft::CutSet(all));
    EXPECT_TRUE(ft::is_minimal_cut_set(tree, shrunk)) << "seed " << seed;
    EXPECT_EQ(shrunk, ft::shrink_to_minimal(tree, ft::CutSet(all)));
  }
}

// --- engine-level differentials -----------------------------------------

core::PipelineOptions incremental_options(bool on, core::SolverChoice solver,
                                          double weight_scale = 1e6) {
  core::PipelineOptions opts;
  opts.solver = solver;
  opts.incremental = on;
  opts.weight_scale = weight_scale;
  return opts;
}

TEST(IncrementalEngines, OllMatchesStatelessAndReusesState) {
  const core::MpmcsPipeline pipe(
      incremental_options(false, core::SolverChoice::Oll));
  for (std::uint64_t seed : {1u, 7u, 23u}) {
    gen::GeneratorOptions gopts;
    gopts.num_events = 40;
    gopts.sharing = 0.25;
    const ft::FaultTree tree = gen::random_tree(gopts, seed);
    const auto instance =
        std::make_shared<const WcnfInstance>(pipe.build_instance(tree));

    maxsat::OllSolver fresh;
    const maxsat::MaxSatResult reference = fresh.solve(*instance);
    ASSERT_EQ(reference.status, MaxSatStatus::Optimal);

    maxsat::IncrementalOll inc(instance, maxsat::OllOptions{});
    const maxsat::MaxSatResult first = inc.solve({}, nullptr);
    ASSERT_EQ(first.status, MaxSatStatus::Optimal);
    EXPECT_EQ(first.cost, reference.cost) << "seed " << seed;
    EXPECT_TRUE(inc.base_converged());

    // Re-solve: same optimum, and the converged state needs exactly one
    // verification SAT call (no cores).
    const maxsat::MaxSatResult again = inc.solve({}, nullptr);
    ASSERT_EQ(again.status, MaxSatStatus::Optimal);
    EXPECT_EQ(again.cost, reference.cost);
    EXPECT_EQ(again.sat_calls, 1u);
    EXPECT_EQ(again.cores, 0u);
    EXPECT_LT(again.sat_calls, first.sat_calls);
  }
}

TEST(IncrementalEngines, LsuMatchesStatelessAndReusesState) {
  // A coarse weight scale collapses the -log probabilities onto few
  // distinct integers, keeping the weighted counting encoding small —
  // the regime LSU is actually raced in.
  core::PipelineOptions popts =
      incremental_options(false, core::SolverChoice::Oll);
  popts.weight_scale = 8;
  const core::MpmcsPipeline pipe(popts);
  for (std::uint64_t seed : {2u, 9u}) {
    gen::GeneratorOptions gopts;
    gopts.num_events = 24;
    gopts.min_prob = 0.05;
    gopts.max_prob = 0.4;
    const ft::FaultTree tree = gen::random_tree(gopts, seed);
    const auto instance =
        std::make_shared<const WcnfInstance>(pipe.build_instance(tree));

    maxsat::OllSolver fresh;
    const maxsat::MaxSatResult reference = fresh.solve(*instance);
    ASSERT_EQ(reference.status, MaxSatStatus::Optimal);

    maxsat::IncrementalLsu inc(instance, maxsat::LsuOptions{});
    const maxsat::MaxSatResult first = inc.solve({}, nullptr);
    ASSERT_EQ(first.status, MaxSatStatus::Optimal) << "seed " << seed;
    EXPECT_EQ(first.cost, reference.cost);

    const maxsat::MaxSatResult again = inc.solve({}, nullptr);
    ASSERT_EQ(again.status, MaxSatStatus::Optimal);
    EXPECT_EQ(again.cost, reference.cost);
    EXPECT_EQ(again.sat_calls, 1u);
  }
}

TEST(IncrementalEngines, HardUnsatInstanceStaysDead) {
  auto instance = std::make_shared<WcnfInstance>(1);
  instance->add_hard({Lit::pos(0)});
  instance->add_hard({Lit::neg(0)});
  instance->add_soft_unit(Lit::neg(0), 3);
  maxsat::IncrementalOll inc(instance, maxsat::OllOptions{});
  EXPECT_TRUE(inc.hard_unsat());
  EXPECT_EQ(inc.solve({}, nullptr).status, MaxSatStatus::Unsatisfiable);
  EXPECT_EQ(inc.solve({}, nullptr).status, MaxSatStatus::Unsatisfiable);
}

std::shared_ptr<const WcnfInstance> pick_one_instance(maxsat::Weight w0,
                                                      maxsat::Weight w1,
                                                      maxsat::Weight w2) {
  auto inst = std::make_shared<WcnfInstance>(3);
  inst->add_hard({Lit::pos(0), Lit::pos(1), Lit::pos(2)});
  inst->add_soft_unit(Lit::neg(0), w0);
  inst->add_soft_unit(Lit::neg(1), w1);
  inst->add_soft_unit(Lit::neg(2), w2);
  return inst;
}

TEST(IncrementalEngines, RebasePatchKeepsChargeHistoryAndStaysOptimal) {
  // "Pick at least one of three" with per-pick costs: the optimum is the
  // cheapest pick. The first solve discovers the single core and charges
  // its minimum weight; a feasible reweight must patch residuals in
  // place (patched_rebases advances) and still land on the new optimum.
  maxsat::IncrementalOll engine(pick_one_instance(3, 5, 7),
                                maxsat::OllOptions{});
  const auto first = engine.solve({}, nullptr);
  ASSERT_EQ(first.status, MaxSatStatus::Optimal);
  EXPECT_EQ(first.cost, 3u);
  EXPECT_TRUE(engine.base_converged());

  // Converged base: a context-free re-solve is one verification SAT call.
  const std::uint64_t calls_before = sat::Solver::global_solve_calls();
  const auto again = engine.solve({}, nullptr);
  EXPECT_EQ(again.status, MaxSatStatus::Optimal);
  EXPECT_EQ(again.cost, 3u);
  EXPECT_EQ(sat::Solver::global_solve_calls() - calls_before, 1u);

  // Every changed soft can absorb its delta: in-place patch.
  EXPECT_EQ(engine.patched_rebases(), 0u);
  ASSERT_TRUE(engine.rebase(pick_one_instance(10, 4, 7)));
  EXPECT_EQ(engine.patched_rebases(), 1u);
  const auto patched = engine.solve({}, nullptr);
  ASSERT_EQ(patched.status, MaxSatStatus::Optimal);
  EXPECT_EQ(patched.cost, 4u);
  const auto fresh = maxsat::OllSolver().solve(*pick_one_instance(10, 4, 7));
  ASSERT_EQ(fresh.status, MaxSatStatus::Optimal);
  EXPECT_EQ(patched.cost, fresh.cost);

  // Weights dropping below what the cores already charged cannot be
  // patched; the fallback rebuild must still reach the new optimum.
  ASSERT_TRUE(engine.rebase(pick_one_instance(1, 1, 1)));
  EXPECT_EQ(engine.patched_rebases(), 1u);
  const auto rebuilt = engine.solve({}, nullptr);
  ASSERT_EQ(rebuilt.status, MaxSatStatus::Optimal);
  EXPECT_EQ(rebuilt.cost, 1u);
}

// --- pipeline differentials ---------------------------------------------

/// The artefact's incremental sessions: the whole tree's, or under the
/// module pass its frontier modules'.
std::vector<maxsat::IncrementalSessionPtr> sessions_of(
    const core::PreparedInstance& prepared) {
  if (!prepared.strata) return {prepared.session};
  std::vector<maxsat::IncrementalSessionPtr> out;
  for (const auto& s : prepared.strata->strata) {
    out.push_back(s.prepared->session);
  }
  return out;
}

void expect_same_optimum(const ft::FaultTree& tree, core::SolverChoice solver,
                         const std::string& label,
                         double weight_scale = 1e6) {
  const core::MpmcsPipeline off(
      incremental_options(false, solver, weight_scale));
  const core::MpmcsPipeline on(incremental_options(true, solver, weight_scale));
  const core::MpmcsSolution a = off.solve_prepared(tree, off.prepare(tree));
  const core::PreparedInstance prepared = on.prepare(tree);
  // A closed-form tree has no session at all: nothing in it needs search.
  const auto sessions = sessions_of(prepared);
  for (const auto& session : sessions) ASSERT_NE(session, nullptr) << label;
  const core::MpmcsSolution b = on.solve_prepared(tree, prepared);
  ASSERT_EQ(a.status, b.status) << label;
  if (a.status != MaxSatStatus::Optimal) return;
  // Equality in scaled-weight space (the solvers' objective); cost-tied
  // optima may be distinct cuts, so compare probabilities with an epsilon.
  EXPECT_EQ(a.scaled_cost, b.scaled_cost) << label;
  EXPECT_NEAR(a.probability, b.probability,
              1e-9 * std::max(a.probability, b.probability))
      << label;
  EXPECT_TRUE(ft::is_minimal_cut_set(tree, b.cut)) << label;
  // And a second (warm) session solve must agree with itself. Under the
  // module pass a repeat is served by the frontier modules' proven
  // optima, so each module's own artefact is re-solved on its warm
  // session and must reproduce the kept optimum. The portfolio drives
  // both engines per call, so only a lower bound on the session's solve
  // count is exact here.
  const core::MpmcsSolution c = on.solve_prepared(tree, prepared);
  EXPECT_EQ(b.scaled_cost, c.scaled_cost) << label;
  if (prepared.strata) {
    for (const auto& s : prepared.strata->strata) {
      const auto& kept = s.prepared->optimum->solution;
      ASSERT_TRUE(kept.has_value()) << label;
      EXPECT_EQ(on.solve_prepared(s.kernel->tree, *s.prepared).scaled_cost,
                kept->scaled_cost)
          << label;
    }
  }
  for (const auto& session : sessions) {
    EXPECT_GE(session->stats().solves, 2u) << label;
  }
}

TEST(IncrementalDifferential, HundredGeneratedTreesOll) {
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    gen::GeneratorOptions opts;
    opts.num_events = 20 + seed % 30;
    opts.vote_fraction = seed % 3 == 0 ? 0.2 : 0.0;
    opts.sharing = seed % 2 == 0 ? 0.25 : 0.0;
    const ft::FaultTree tree = gen::random_tree(opts, seed);
    expect_same_optimum(tree, core::SolverChoice::Oll,
                        "seed " + std::to_string(seed));
  }
}

TEST(IncrementalDifferential, GeneratedTreesLsu) {
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    gen::GeneratorOptions opts;
    opts.num_events = 16 + seed;
    opts.min_prob = 0.05;
    opts.max_prob = 0.4;
    const ft::FaultTree tree = gen::random_tree(opts, 0x15u + seed);
    expect_same_optimum(tree, core::SolverChoice::Lsu,
                        "seed " + std::to_string(seed), /*weight_scale=*/8);
  }
}

TEST(IncrementalDifferential, PortfolioSessionAgrees) {
  for (std::uint64_t seed : {5u, 17u}) {
    gen::GeneratorOptions opts;
    opts.num_events = 30;
    opts.sharing = 0.2;
    const ft::FaultTree tree = gen::random_tree(opts, seed);
    for (const auto choice :
         {core::SolverChoice::Portfolio, core::SolverChoice::Auto}) {
      expect_same_optimum(tree, choice,
                          std::string(core::solver_choice_name(choice)) +
                              " seed " + std::to_string(seed));
    }
  }
}

TEST(IncrementalDifferential, BruteForceCrossCheck) {
  int checked = 0;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    gen::GeneratorOptions opts;
    opts.num_events = 8;
    const ft::FaultTree tree = gen::random_tree(opts, 0xb0 + seed);
    const core::MpmcsPipeline inc(
        incremental_options(true, core::SolverChoice::Oll));
    const core::PreparedInstance prepared = inc.prepare(tree);
    const core::MpmcsSolution sol = inc.solve_prepared(tree, prepared);
    ASSERT_EQ(sol.status, MaxSatStatus::Optimal);

    maxsat::BruteForceSolver brute;
    const maxsat::MaxSatResult reference =
        brute.solve(inc.build_instance(tree));
    if (reference.status != MaxSatStatus::Optimal) continue;  // too wide
    EXPECT_EQ(sol.scaled_cost, reference.cost) << "seed " << seed;
    ++checked;
  }
  EXPECT_GT(checked, 10);
}

TEST(IncrementalDifferential, ExampleTreeCorpus) {
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
    expect_same_optimum(tree, core::SolverChoice::Oll,
                        entry.path().filename().string());
    ++checked;
  }
  EXPECT_GT(checked, 5);
#else
  GTEST_SKIP() << "FTA_SOURCE_DIR not defined";
#endif
}

TEST(IncrementalDifferential, TopKEnumerationMatches) {
  for (std::uint64_t seed : {3u, 11u, 42u}) {
    gen::GeneratorOptions opts;
    opts.num_events = 16;
    opts.sharing = 0.2;
    const ft::FaultTree tree = gen::random_tree(opts, seed);
    const core::MpmcsPipeline off(
        incremental_options(false, core::SolverChoice::Oll));
    const core::MpmcsPipeline on(
        incremental_options(true, core::SolverChoice::Oll));
    maxsat::MaxSatStatus status_off = MaxSatStatus::Optimal;
    maxsat::MaxSatStatus status_on = MaxSatStatus::Optimal;
    const auto a = off.top_k(tree, 6, nullptr, &status_off);
    const auto b = on.top_k(tree, 6, nullptr, &status_on);
    EXPECT_EQ(status_off, status_on) << "seed " << seed;
    ASSERT_EQ(a.size(), b.size()) << "seed " << seed;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].scaled_cost, b[i].scaled_cost)
          << "seed " << seed << " rank " << i;
      EXPECT_NEAR(a[i].probability, b[i].probability,
                  1e-9 * std::max(a[i].probability, b[i].probability))
          << "seed " << seed << " rank " << i;
      EXPECT_TRUE(ft::is_minimal_cut_set(tree, b[i].cut)) << "seed " << seed;
    }
  }
}

TEST(IncrementalDifferential, TopKExhaustionAfterSolvesLeavesSessionClean) {
  // Enumerate past exhaustion, then re-solve the plain MPMCS on the same
  // prepared artefact: the retired blocking context must not leak into
  // later solves.
  ft::FaultTreeBuilder b;
  const auto e1 = b.event("e1", 0.4);
  const auto e2 = b.event("e2", 0.3);
  const auto e3 = b.event("e3", 0.2);
  b.top(b.or_("TOP", {b.and_("A", {e1, e2}), b.and_("B", {e2, e3})}));
  const ft::FaultTree tree = std::move(b).build();

  const core::MpmcsPipeline on(
      incremental_options(true, core::SolverChoice::Oll));
  maxsat::MaxSatStatus final_status = MaxSatStatus::Optimal;
  const auto all = on.top_k(tree, 10, nullptr, &final_status);
  EXPECT_EQ(all.size(), 2u);
  EXPECT_EQ(final_status, MaxSatStatus::Unsatisfiable);

  const core::PreparedInstance prepared = on.prepare(tree);
  const core::MpmcsSolution sol1 = on.solve_prepared(tree, prepared);
  const core::MpmcsSolution sol2 = on.solve_prepared(tree, prepared);
  ASSERT_EQ(sol1.status, MaxSatStatus::Optimal);
  EXPECT_EQ(sol1.scaled_cost, sol2.scaled_cost);
  EXPECT_EQ(sol1.probability, all[0].probability);
}

TEST(IncrementalSession, FragmentedNestedVoteDivertsToLsu) {
  // Regression for the OLL weight-fragmentation pathology: seed 5002 of
  // property_sweep's VoteCombinedLaddersMatchLsuReference recipe — a
  // k-of-n top over 2-of-3 subsystems — with the vote gates lowered by
  // expansion fragments monolithic core-guided OLL into thousands of
  // near-duplicate cores (in practice it stops terminating). The
  // maxsat::kOllCoreCeiling must latch the session after bounded work,
  // the pipeline must divert the solve to the session's LSU engine
  // (whose upper-bound search is immune to fragmentation), and the
  // request must still end Optimal with the exact MPMCS.
  util::Rng rng(5002ULL * 131 + 7);
  gen::LadderOptions lo;
  lo.subsystems = static_cast<std::uint32_t>(3 + rng.below(2));
  lo.combine = ft::NodeType::Vote;
  lo.combine_k = static_cast<std::uint32_t>(2 + rng.below(lo.subsystems - 1));
  const ft::FaultTree tree = gen::ladder_tree(lo, 5002);

  // Exact reference: exhaustive maximum over the satisfying assignments,
  // multiplying factors in ascending event order exactly like
  // CutSet::probability, so the comparison below is ==, not a tolerance.
  logic::FormulaStore store;
  const logic::NodeId root = tree.to_formula(store);
  const auto n = static_cast<std::uint32_t>(tree.num_events());
  ASSERT_LE(n, 20u);
  double brute = -1.0;
  std::vector<bool> assignment(n, false);
  for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << n); ++mask) {
    double p = 1.0;
    for (std::uint32_t v = 0; v < n; ++v) {
      assignment[v] = (mask >> v) & 1;
      if (assignment[v]) p *= tree.event_probability(v);
    }
    if (p > brute && logic::eval(store, root, assignment)) brute = p;
  }
  ASSERT_GT(brute, 0.0);

  core::PipelineOptions opts =
      incremental_options(true, core::SolverChoice::Oll);
  opts.card_lowering = logic::CardinalityLowering::Expand;
  const core::MpmcsPipeline pipe(opts);
  const core::PreparedInstance prepared = pipe.prepare(tree);
  ASSERT_TRUE(prepared.session);

  const core::MpmcsSolution sol = pipe.solve_prepared(tree, prepared);
  ASSERT_EQ(sol.status, MaxSatStatus::Optimal);
  EXPECT_DOUBLE_EQ(sol.probability, brute);
  EXPECT_TRUE(ft::is_minimal_cut_set(tree, sol.cut));
  {
    // The Optimal answer really came through the divert: the session's
    // OLL engine is fragmentation-latched.
    auto guard = prepared.session->try_acquire();
    ASSERT_TRUE(guard);
    EXPECT_TRUE(guard.oll_fragmented());
  }

  // The latch persists: a warm re-solve skips OLL entirely and stays
  // exact.
  const core::MpmcsSolution again = pipe.solve_prepared(tree, prepared);
  ASSERT_EQ(again.status, MaxSatStatus::Optimal);
  EXPECT_DOUBLE_EQ(again.probability, brute);

  // The monolithic LSU reference (the configuration property_sweep pins
  // these seeds against) agrees.
  const core::MpmcsSolution ref =
      core::MpmcsPipeline(incremental_options(true, core::SolverChoice::Lsu))
          .solve(tree);
  ASSERT_EQ(ref.status, MaxSatStatus::Optimal);
  EXPECT_DOUBLE_EQ(ref.probability, sol.probability);
}

TEST(IncrementalSession, MemoryCapRebuildsEngines) {
  gen::GeneratorOptions opts;
  opts.num_events = 40;
  opts.sharing = 0.25;
  const ft::FaultTree tree = gen::random_tree(opts, 77);
  core::PipelineOptions popts =
      incremental_options(true, core::SolverChoice::Oll);
  popts.incremental_memory_cap_bytes = 1;  // everything exceeds this
  const core::MpmcsPipeline pipe(popts);
  const core::PreparedInstance prepared = pipe.prepare(tree);
  const core::MpmcsSolution a = pipe.solve_prepared(tree, prepared);
  const core::MpmcsSolution b = pipe.solve_prepared(tree, prepared);
  ASSERT_EQ(a.status, MaxSatStatus::Optimal);
  EXPECT_EQ(a.scaled_cost, b.scaled_cost);
  EXPECT_GE(prepared.session->stats().resets, 2u);
  EXPECT_EQ(prepared.session->memory_bytes(), 0u);  // engines shed
}

// --- cache/session invalidation -----------------------------------------

TEST(IncrementalSession, ConfigChangesInvalidateStructuralKey) {
  gen::GeneratorOptions gopts;
  gopts.num_events = 12;
  const ft::FaultTree tree = gen::random_tree(gopts, 3);

  core::PipelineOptions base;
  core::PipelineOptions no_inc = base;
  no_inc.incremental = false;
  core::PipelineOptions no_pp = base;
  no_pp.preprocess = false;

  const std::string k0 = engine::structural_key(tree, base);
  EXPECT_NE(k0, engine::structural_key(tree, no_inc));
  EXPECT_NE(k0, engine::structural_key(tree, no_pp));
  EXPECT_EQ(k0, engine::structural_key(tree, base));
}

TEST(IncrementalSession, EngineCacheKeepsConfigsApart) {
  // The same tree analysed under two preprocessing configurations must
  // produce two cache entries (two sessions) and identical optima.
  gen::GeneratorOptions gopts;
  gopts.num_events = 20;
  gopts.sharing = 0.2;
  const ft::FaultTree tree = gen::random_tree(gopts, 11);

  engine::EngineOptions eopts;
  eopts.num_threads = 1;  // deterministic hit/miss accounting
  eopts.memoize_results = false;
  engine::AnalysisEngine eng(eopts);

  std::vector<engine::AnalysisRequest> requests;
  for (int i = 0; i < 4; ++i) {
    engine::AnalysisRequest r;
    r.id = "r" + std::to_string(i);
    r.tree = tree;
    r.pipeline.solver = core::SolverChoice::Oll;
    r.pipeline.preprocess = i % 2 == 0;
    requests.push_back(std::move(r));
  }
  const auto results = eng.run_batch(std::move(requests));
  ASSERT_EQ(results.size(), 4u);
  for (const auto& r : results) {
    ASSERT_TRUE(r.ok) << r.id << ": " << r.error;
    EXPECT_EQ(r.mpmcs.scaled_cost, results[0].mpmcs.scaled_cost) << r.id;
  }
  // Two configurations -> two distinct structural keys -> 2 misses.
  EXPECT_EQ(eng.stats().cache_misses, 2u);
  EXPECT_EQ(eng.stats().cache_hits, 2u);
}

}  // namespace
}  // namespace fta
