#include <gtest/gtest.h>

#include "logic/tseitin.hpp"
#include "logic/eval.hpp"
#include "sat/solver.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace fta::sat {
namespace {

using logic::Lit;

TEST(SatSolver, EmptyProblemIsSat) {
  Solver s;
  EXPECT_EQ(s.solve(), SolveResult::Sat);
}

TEST(SatSolver, SingleUnit) {
  Solver s;
  s.ensure_vars(1);
  ASSERT_TRUE(s.add_clause({Lit::pos(0)}));
  EXPECT_EQ(s.solve(), SolveResult::Sat);
  EXPECT_TRUE(s.model()[0]);
}

TEST(SatSolver, ContradictoryUnits) {
  Solver s;
  s.ensure_vars(1);
  ASSERT_TRUE(s.add_clause({Lit::pos(0)}));
  EXPECT_FALSE(s.add_clause({Lit::neg(0)}));
  EXPECT_EQ(s.solve(), SolveResult::Unsat);
}

TEST(SatSolver, SimpleImplicationChain) {
  // x0 & (x0 -> x1) & (x1 -> x2) forces all true.
  Solver s;
  s.ensure_vars(3);
  ASSERT_TRUE(s.add_clause({Lit::pos(0)}));
  ASSERT_TRUE(s.add_clause({Lit::neg(0), Lit::pos(1)}));
  ASSERT_TRUE(s.add_clause({Lit::neg(1), Lit::pos(2)}));
  ASSERT_EQ(s.solve(), SolveResult::Sat);
  EXPECT_TRUE(s.model()[0]);
  EXPECT_TRUE(s.model()[1]);
  EXPECT_TRUE(s.model()[2]);
}

TEST(SatSolver, TautologicalClauseIgnored) {
  Solver s;
  s.ensure_vars(2);
  ASSERT_TRUE(s.add_clause({Lit::pos(0), Lit::neg(0)}));
  ASSERT_TRUE(s.add_clause({Lit::pos(1)}));
  EXPECT_EQ(s.solve(), SolveResult::Sat);
}

TEST(SatSolver, DuplicateLiteralsCollapsed) {
  Solver s;
  s.ensure_vars(1);
  ASSERT_TRUE(s.add_clause({Lit::pos(0), Lit::pos(0), Lit::pos(0)}));
  EXPECT_EQ(s.solve(), SolveResult::Sat);
  EXPECT_TRUE(s.model()[0]);
}

/// Pigeonhole principle PHP(n+1, n): classic UNSAT family that requires
/// genuine conflict-driven search.
void add_pigeonhole(Solver& s, std::uint32_t holes) {
  const std::uint32_t pigeons = holes + 1;
  auto var = [&](std::uint32_t p, std::uint32_t h) {
    return static_cast<logic::Var>(p * holes + h);
  };
  s.ensure_vars(pigeons * holes);
  for (std::uint32_t p = 0; p < pigeons; ++p) {
    std::vector<Lit> clause;
    for (std::uint32_t h = 0; h < holes; ++h) clause.push_back(Lit::pos(var(p, h)));
    s.add_clause(clause);
  }
  for (std::uint32_t h = 0; h < holes; ++h) {
    for (std::uint32_t p1 = 0; p1 < pigeons; ++p1) {
      for (std::uint32_t p2 = p1 + 1; p2 < pigeons; ++p2) {
        s.add_clause({Lit::neg(var(p1, h)), Lit::neg(var(p2, h))});
      }
    }
  }
}

TEST(SatSolver, PigeonholeUnsat) {
  for (std::uint32_t holes = 2; holes <= 6; ++holes) {
    Solver s;
    add_pigeonhole(s, holes);
    EXPECT_EQ(s.solve(), SolveResult::Unsat) << "holes=" << holes;
  }
}

TEST(SatSolver, PigeonholeExactFitSat) {
  // n pigeons, n holes is satisfiable.
  const std::uint32_t n = 5;
  Solver s;
  auto var = [&](std::uint32_t p, std::uint32_t h) {
    return static_cast<logic::Var>(p * n + h);
  };
  s.ensure_vars(n * n);
  for (std::uint32_t p = 0; p < n; ++p) {
    std::vector<Lit> clause;
    for (std::uint32_t h = 0; h < n; ++h) clause.push_back(Lit::pos(var(p, h)));
    s.add_clause(clause);
  }
  for (std::uint32_t h = 0; h < n; ++h) {
    for (std::uint32_t p1 = 0; p1 < n; ++p1) {
      for (std::uint32_t p2 = p1 + 1; p2 < n; ++p2) {
        s.add_clause({Lit::neg(var(p1, h)), Lit::neg(var(p2, h))});
      }
    }
  }
  EXPECT_EQ(s.solve(), SolveResult::Sat);
}

// Property sweep: random 3-CNFs cross-checked against a brute-force oracle.
class RandomCnfTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomCnfTest, AgreesWithBruteForce) {
  util::Rng rng(GetParam());
  for (int round = 0; round < 30; ++round) {
    const auto num_vars = static_cast<std::uint32_t>(3 + rng.below(10));
    // Around the 4.26 clause/var hard ratio, mixed over rounds.
    const auto num_clauses =
        static_cast<std::size_t>(num_vars * (2 + rng.below(4)));
    const auto cnf = test::random_cnf(rng, num_vars, num_clauses, 3);
    const auto oracle = test::brute_force_sat(cnf);

    Solver s;
    if (!s.add_cnf(cnf)) {
      EXPECT_FALSE(oracle.has_value()) << "solver says trivially UNSAT";
      continue;
    }
    const SolveResult r = s.solve();
    if (oracle.has_value()) {
      ASSERT_EQ(r, SolveResult::Sat) << "seed " << GetParam() << " round " << round;
      // The model must actually satisfy the CNF.
      std::vector<bool> model = s.model();
      model.resize(cnf.num_vars(), false);
      EXPECT_TRUE(cnf.eval(model));
    } else {
      ASSERT_EQ(r, SolveResult::Unsat) << "seed " << GetParam() << " round " << round;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCnfTest,
                         ::testing::Values(1, 2, 3, 4, 5, 17, 100, 2024));

TEST(SatSolver, AssumptionsSatisfiable) {
  Solver s;
  s.ensure_vars(3);
  ASSERT_TRUE(s.add_clause({Lit::pos(0), Lit::pos(1)}));
  EXPECT_EQ(s.solve(std::vector<Lit>{Lit::neg(0)}), SolveResult::Sat);
  EXPECT_FALSE(s.model()[0]);
  EXPECT_TRUE(s.model()[1]);
}

TEST(SatSolver, AssumptionsUnsatGivesCore) {
  // x0|x1 with assumptions ~x0, ~x1 is UNSAT; the core must mention both.
  Solver s;
  s.ensure_vars(2);
  ASSERT_TRUE(s.add_clause({Lit::pos(0), Lit::pos(1)}));
  const std::vector<Lit> assumptions{Lit::neg(0), Lit::neg(1)};
  ASSERT_EQ(s.solve(assumptions), SolveResult::Unsat);
  auto core = s.unsat_core();
  std::sort(core.begin(), core.end());
  ASSERT_EQ(core.size(), 2u);
  EXPECT_EQ(core[0], Lit::neg(0));
  EXPECT_EQ(core[1], Lit::neg(1));
}

TEST(SatSolver, CoreIsSubsetOfAssumptions) {
  // Unrelated assumption ~x2 must not pollute the core.
  Solver s;
  s.ensure_vars(3);
  ASSERT_TRUE(s.add_clause({Lit::pos(0), Lit::pos(1)}));
  const std::vector<Lit> assumptions{Lit::neg(2), Lit::neg(0), Lit::neg(1)};
  ASSERT_EQ(s.solve(assumptions), SolveResult::Unsat);
  for (Lit l : s.unsat_core()) {
    EXPECT_NE(l, Lit::neg(2)) << "irrelevant assumption in core";
  }
  EXPECT_LE(s.unsat_core().size(), 2u);
}

TEST(SatSolver, IncrementalReuseAfterUnsatAssumptions) {
  Solver s;
  s.ensure_vars(2);
  ASSERT_TRUE(s.add_clause({Lit::pos(0), Lit::pos(1)}));
  ASSERT_EQ(s.solve(std::vector<Lit>{Lit::neg(0), Lit::neg(1)}),
            SolveResult::Unsat);
  // Same solver, weaker assumptions: now satisfiable.
  ASSERT_EQ(s.solve(std::vector<Lit>{Lit::neg(0)}), SolveResult::Sat);
  EXPECT_TRUE(s.model()[1]);
  // And clauses may still be added incrementally.
  ASSERT_TRUE(s.add_clause({Lit::neg(1)}));
  EXPECT_EQ(s.solve(), SolveResult::Sat);
  EXPECT_TRUE(s.model()[0]);
}

TEST(SatSolver, UnsatCoreFromRandomInstances) {
  // Cores returned under assumptions must genuinely be unsatisfiable
  // together with the clauses (verified by re-solving with the core only).
  util::Rng rng(5150);
  int unsat_seen = 0;
  for (int round = 0; round < 40; ++round) {
    const auto num_vars = static_cast<std::uint32_t>(4 + rng.below(6));
    const auto cnf = test::random_cnf(rng, num_vars, num_vars * 3, 3);
    std::vector<Lit> assumptions;
    for (logic::Var v = 0; v < num_vars; ++v) {
      if (rng.chance(0.5)) assumptions.push_back(Lit::make(v, rng.chance(0.5)));
    }
    Solver s;
    if (!s.add_cnf(cnf)) continue;
    if (s.solve(assumptions) != SolveResult::Unsat) continue;
    const auto core = s.unsat_core();
    if (core.empty()) continue;  // UNSAT without assumptions
    ++unsat_seen;
    // Each core literal must be among the assumptions.
    for (Lit l : core) {
      EXPECT_NE(std::find(assumptions.begin(), assumptions.end(), l),
                assumptions.end());
    }
    Solver s2;
    ASSERT_TRUE(s2.add_cnf(cnf));
    EXPECT_EQ(s2.solve(core), SolveResult::Unsat)
        << "core is not actually unsatisfiable (round " << round << ")";
  }
  EXPECT_GT(unsat_seen, 0) << "test produced no UNSAT-with-core instances";
}

TEST(SatSolver, CancellationReturnsUnknown) {
  SolverOptions opts;
  Solver s(opts);
  add_pigeonhole(s, 8);
  auto token = std::make_shared<util::CancelToken>();
  token->cancel();
  s.set_cancel_token(token);
  EXPECT_EQ(s.solve(), SolveResult::Unknown);
}

TEST(SatSolver, TseitinPipelineSat) {
  // End-to-end: monotone formula -> Tseitin -> solve; model satisfies it.
  util::Rng rng(404);
  for (int round = 0; round < 20; ++round) {
    logic::FormulaStore store;
    const auto n = static_cast<std::uint32_t>(3 + rng.below(6));
    const auto f = test::random_monotone_formula(rng, store, n);
    auto res = logic::tseitin(store, f, true);
    Solver s;
    ASSERT_TRUE(s.add_cnf(res.cnf));
    ASSERT_EQ(s.solve(), SolveResult::Sat);  // all-true satisfies monotone f
    std::vector<bool> input(s.model().begin(), s.model().begin() + n);
    EXPECT_TRUE(logic::eval(store, f, input));
  }
}

TEST(SatSolver, StatsArePopulated) {
  Solver s;
  add_pigeonhole(s, 5);
  ASSERT_EQ(s.solve(), SolveResult::Unsat);
  EXPECT_GT(s.stats().conflicts, 0u);
  EXPECT_GT(s.stats().decisions, 0u);
  EXPECT_GT(s.stats().propagations, 0u);
}

TEST(SatSolver, LargeRandomSatisfiableInstance) {
  // Under-constrained 3-CNF (ratio 3.0): should be SAT and fast.
  util::Rng rng(808);
  const std::uint32_t n = 400;
  logic::Cnf cnf(n);
  for (std::size_t i = 0; i < n * 3; ++i) {
    logic::Clause c;
    while (c.size() < 3) {
      const auto v = static_cast<logic::Var>(rng.below(n));
      c.push_back(Lit::make(v, rng.chance(0.5)));
    }
    cnf.add_clause(c);
  }
  Solver s;
  ASSERT_TRUE(s.add_cnf(cnf));
  if (s.solve() == SolveResult::Sat) {
    std::vector<bool> model = s.model();
    model.resize(cnf.num_vars());
    EXPECT_TRUE(cnf.eval(model));
  }
}

TEST(SatSolver, ManySolveCallsReuseLearnts) {
  // Drive the learnt DB through reductions by repeated solving.
  util::Rng rng(909);
  Solver s;
  const auto cnf = test::random_cnf(rng, 60, 240, 3);
  ASSERT_TRUE(s.add_cnf(cnf));
  for (int i = 0; i < 20; ++i) {
    std::vector<Lit> assumptions;
    for (int k = 0; k < 8; ++k) {
      const auto v = static_cast<logic::Var>(rng.below(60));
      assumptions.push_back(Lit::make(v, rng.chance(0.5)));
    }
    const auto r = s.solve(assumptions);
    EXPECT_NE(r, SolveResult::Unknown);
  }
}

}  // namespace
}  // namespace fta::sat
