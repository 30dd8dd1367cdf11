#include <gtest/gtest.h>

#include <memory>

#include "maxsat/brute_force.hpp"
#include "maxsat/fu_malik.hpp"
#include "maxsat/instance.hpp"
#include "maxsat/lsu.hpp"
#include "maxsat/oll.hpp"
#include "maxsat/portfolio.hpp"
#include "maxsat/totalizer.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace fta::maxsat {
namespace {

using logic::Clause;
using logic::Lit;

// ------------------------------------------------------------ instance --

TEST(WcnfInstance, Basics) {
  WcnfInstance inst;
  inst.add_hard({Lit::pos(0), Lit::pos(1)});
  inst.add_soft_unit(Lit::neg(0), 3);
  inst.add_soft_unit(Lit::neg(1), 5);
  EXPECT_EQ(inst.num_vars(), 2u);
  EXPECT_EQ(inst.total_soft_weight(), 8u);
  EXPECT_EQ(inst.cost_of({true, false}), 3u);
  EXPECT_EQ(inst.cost_of({false, true}), 5u);
  EXPECT_EQ(inst.cost_of({true, true}), 8u);
  EXPECT_TRUE(inst.satisfies_hard({true, false}));
  EXPECT_FALSE(inst.satisfies_hard({false, false}));
}

TEST(WcnfInstance, RejectsZeroWeight) {
  WcnfInstance inst;
  EXPECT_THROW(inst.add_soft_unit(Lit::pos(0), 0), std::invalid_argument);
}

TEST(WcnfInstance, WcnfRoundTrip) {
  WcnfInstance inst;
  inst.add_hard({Lit::pos(0), Lit::pos(1)});
  inst.add_soft_unit(Lit::neg(0), 3);
  inst.add_soft({Lit::neg(1), Lit::pos(2)}, 7);
  const WcnfInstance back = from_wcnf_string(to_wcnf_string(inst));
  EXPECT_EQ(back.num_vars(), inst.num_vars());
  ASSERT_EQ(back.hard().size(), 1u);
  ASSERT_EQ(back.soft().size(), 2u);
  EXPECT_EQ(back.soft()[0].weight, 3u);
  EXPECT_EQ(back.soft()[1].weight, 7u);
  EXPECT_EQ(back.soft()[1].lits, inst.soft()[1].lits);
}

TEST(WcnfInstance, WcnfRejectsMalformed) {
  EXPECT_THROW(from_wcnf_string("1 1 0\n"), std::runtime_error);
  EXPECT_THROW(from_wcnf_string("p wcnf x\n"), std::runtime_error);
  EXPECT_THROW(from_wcnf_string("p wcnf 2 1 10\n3 1 2\n"), std::runtime_error);
}

// ----------------------------------------------------------- totalizer --

TEST(Totalizer, CountsCorrectly) {
  // Exhaustively check: o_j true exactly when >= j inputs true is
  // *entailled* in the one-directional sense (count >= j  =>  o_j).
  for (std::uint32_t n = 1; n <= 5; ++n) {
    sat::Solver s;
    std::vector<Lit> inputs;
    for (std::uint32_t i = 0; i < n; ++i) inputs.push_back(Lit::pos(s.new_var()));
    Totalizer tot(s, inputs, /*initial_bound=*/n);
    ASSERT_EQ(tot.size(), n);
    for (std::uint32_t j = 1; j <= n; ++j) {
      // Force exactly j inputs true and assume ~o_j: must be UNSAT.
      std::vector<Lit> assumptions;
      for (std::uint32_t i = 0; i < n; ++i) {
        assumptions.push_back(i < j ? inputs[i] : ~inputs[i]);
      }
      assumptions.push_back(~tot.at_least(j));
      EXPECT_EQ(s.solve(assumptions), sat::SolveResult::Unsat)
          << "n=" << n << " j=" << j;
      // With only j-1 true, assuming ~o_j must be SAT.
      assumptions.clear();
      for (std::uint32_t i = 0; i < n; ++i) {
        assumptions.push_back(i < j - 1 ? inputs[i] : ~inputs[i]);
      }
      assumptions.push_back(~tot.at_least(j));
      EXPECT_EQ(s.solve(assumptions), sat::SolveResult::Sat)
          << "n=" << n << " j=" << j;
    }
  }
}

TEST(Totalizer, IncrementalExtensionMatchesEagerBuild) {
  // Materialising bound-by-bound must entail exactly the same counting
  // facts as building with the full bound up front.
  for (std::uint32_t n = 2; n <= 6; ++n) {
    sat::Solver s;
    std::vector<Lit> inputs;
    for (std::uint32_t i = 0; i < n; ++i) inputs.push_back(Lit::pos(s.new_var()));
    Totalizer tot(s, inputs, 1);
    for (std::uint32_t target = 2; target <= n; ++target) {
      tot.ensure_bound(s, target);
      ASSERT_EQ(tot.materialized_bound(), target);
      // With exactly `target` inputs true, ~o_target must be refuted.
      std::vector<Lit> assumptions;
      for (std::uint32_t i = 0; i < n; ++i) {
        assumptions.push_back(i < target ? inputs[i] : ~inputs[i]);
      }
      assumptions.push_back(~tot.at_least(target));
      EXPECT_EQ(s.solve(assumptions), sat::SolveResult::Unsat)
          << "n=" << n << " target=" << target;
      // With target-1 true it must be consistent.
      assumptions.clear();
      for (std::uint32_t i = 0; i < n; ++i) {
        assumptions.push_back(i < target - 1 ? inputs[i] : ~inputs[i]);
      }
      assumptions.push_back(~tot.at_least(target));
      EXPECT_EQ(s.solve(assumptions), sat::SolveResult::Sat);
    }
  }
}

TEST(Totalizer, LazyBoundEmitsFewClauses) {
  // Bound-2 materialisation over a wide input set must stay linear-ish,
  // far below the O(n^2) full encoding.
  sat::Solver s;
  std::vector<Lit> inputs;
  for (std::uint32_t i = 0; i < 2000; ++i) inputs.push_back(Lit::pos(s.new_var()));
  const auto vars_before = s.num_vars();
  Totalizer tot(s, inputs, 2);
  EXPECT_EQ(tot.materialized_bound(), 2u);
  // ~2 aux vars per tree node at bound 2 => well under 3n.
  EXPECT_LT(s.num_vars() - vars_before, 6000u);
}

TEST(GeneralizedTotalizer, WeightedBounds) {
  sat::Solver s;
  const Lit a = Lit::pos(s.new_var());
  const Lit b = Lit::pos(s.new_var());
  const Lit c = Lit::pos(s.new_var());
  auto gte = GeneralizedTotalizer::build(s, {{a, 3}, {b, 5}, {c, 7}});
  ASSERT_TRUE(gte.has_value());
  // Attainable sums: 3,5,7,8,10,12,15.
  EXPECT_EQ(gte->outputs().size(), 7u);
  gte->add_order_chain(s);
  const auto under = [&](Weight bound, std::vector<Lit> lits) {
    lits.push_back(gte->upper_bound_assumption(bound));
    return s.solve(lits);
  };
  // Bound 8 forbids sums 10, 12, 15: {b,c}, {a,b,c}... check {b,c} UNSAT.
  EXPECT_EQ(under(8, {b, c}), sat::SolveResult::Unsat);
  EXPECT_EQ(under(8, {a, b}), sat::SolveResult::Sat);  // 8 ok
  EXPECT_EQ(under(8, {a, c}), sat::SolveResult::Unsat);  // 10
  // Tighten to 7: {a,b}=8 now also forbidden.
  EXPECT_EQ(under(7, {a, b}), sat::SolveResult::Unsat);
  EXPECT_EQ(under(7, {c}), sat::SolveResult::Sat);
}

TEST(GeneralizedTotalizer, RespectsBudget) {
  sat::Solver s;
  std::vector<std::pair<Lit, Weight>> inputs;
  // 20 distinct powers of 2: all 2^20 sums distinct.
  for (std::uint32_t i = 0; i < 20; ++i) {
    inputs.emplace_back(Lit::pos(s.new_var()), Weight{1} << i);
  }
  EXPECT_FALSE(GeneralizedTotalizer::build(s, inputs, 1000).has_value());
}

// ------------------------------------------------------------- solvers --

std::vector<MaxSatSolverPtr> all_exact_solvers() {
  std::vector<MaxSatSolverPtr> solvers;
  solvers.push_back(std::make_unique<OllSolver>());
  solvers.push_back(std::make_unique<FuMalikSolver>());
  solvers.push_back(std::make_unique<LsuSolver>());
  return solvers;
}

void expect_optimal(MaxSatSolver& solver, const WcnfInstance& inst,
                    Weight expected_cost) {
  const MaxSatResult r = solver.solve(inst);
  ASSERT_EQ(r.status, MaxSatStatus::Optimal) << solver.name();
  EXPECT_EQ(r.cost, expected_cost) << solver.name();
  ASSERT_TRUE(r.has_model()) << solver.name();
  EXPECT_TRUE(inst.satisfies_hard(r.model)) << solver.name();
  EXPECT_EQ(inst.cost_of(r.model), r.cost) << solver.name();
}

TEST(MaxSat, TrivialNoSofts) {
  WcnfInstance inst;
  inst.add_hard({Lit::pos(0)});
  for (auto& s : all_exact_solvers()) expect_optimal(*s, inst, 0);
}

TEST(MaxSat, TrivialAllSoftsSatisfiable) {
  WcnfInstance inst;
  inst.add_hard({Lit::pos(0), Lit::pos(1)});
  inst.add_soft_unit(Lit::pos(0), 2);
  inst.add_soft_unit(Lit::pos(1), 3);
  for (auto& s : all_exact_solvers()) expect_optimal(*s, inst, 0);
}

TEST(MaxSat, ForcedSingleViolation) {
  // Hard: exactly one of x0,x1 false (can't both hold): pay the cheaper.
  WcnfInstance inst;
  inst.add_hard({Lit::neg(0), Lit::neg(1)});
  inst.add_soft_unit(Lit::pos(0), 7);
  inst.add_soft_unit(Lit::pos(1), 4);
  for (auto& s : all_exact_solvers()) {
    const MaxSatResult r = s->solve(inst);
    ASSERT_EQ(r.status, MaxSatStatus::Optimal) << s->name();
    EXPECT_EQ(r.cost, 4u) << s->name();
    EXPECT_TRUE(r.model[0]) << s->name();
    EXPECT_FALSE(r.model[1]) << s->name();
  }
}

TEST(MaxSat, BothViolationsForced) {
  WcnfInstance inst;
  inst.add_hard({Lit::neg(0)});
  inst.add_hard({Lit::neg(1)});
  inst.add_soft_unit(Lit::pos(0), 3);
  inst.add_soft_unit(Lit::pos(1), 5);
  for (auto& s : all_exact_solvers()) expect_optimal(*s, inst, 8);
}

TEST(MaxSat, UnsatisfiableHard) {
  WcnfInstance inst;
  inst.add_hard({Lit::pos(0)});
  inst.add_hard({Lit::neg(0)});
  inst.add_soft_unit(Lit::pos(1), 1);
  for (auto& s : all_exact_solvers()) {
    EXPECT_EQ(s->solve(inst).status, MaxSatStatus::Unsatisfiable) << s->name();
  }
}

TEST(MaxSat, MultiLiteralSoftClauses) {
  // Soft (x0 | x1) w=5, hard ~x0, ~x1: must pay 5.
  WcnfInstance inst;
  inst.add_hard({Lit::neg(0)});
  inst.add_hard({Lit::neg(1)});
  inst.add_soft({Lit::pos(0), Lit::pos(1)}, 5);
  inst.add_soft_unit(Lit::neg(0), 2);  // satisfied for free
  for (auto& s : all_exact_solvers()) expect_optimal(*s, inst, 5);
}

TEST(MaxSat, CardinalityLadder) {
  // Hard: at least 2 of 4 vars true (as CNF over every triple); softs
  // prefer all false with distinct weights 1,2,4,8. Optimum: make the two
  // cheapest true = 1+2 = 3.
  WcnfInstance inst;
  for (int a = 0; a < 4; ++a) {
    for (int b = a + 1; b < 4; ++b) {
      for (int c = b + 1; c < 4; ++c) {
        inst.add_hard({Lit::pos(static_cast<logic::Var>(a)),
                       Lit::pos(static_cast<logic::Var>(b)),
                       Lit::pos(static_cast<logic::Var>(c))});
      }
    }
  }
  const Weight w[] = {1, 2, 4, 8};
  for (logic::Var v = 0; v < 4; ++v) inst.add_soft_unit(Lit::neg(v), w[v]);
  for (auto& s : all_exact_solvers()) expect_optimal(*s, inst, 3);
}

TEST(BruteForce, MatchesByConstruction) {
  WcnfInstance inst;
  inst.add_hard({Lit::neg(0), Lit::neg(1)});
  inst.add_soft_unit(Lit::pos(0), 7);
  inst.add_soft_unit(Lit::pos(1), 4);
  BruteForceSolver bf;
  const auto r = bf.solve(inst);
  ASSERT_EQ(r.status, MaxSatStatus::Optimal);
  EXPECT_EQ(r.cost, 4u);
}

TEST(BruteForce, RefusesHugeInstances) {
  WcnfInstance inst(40);
  inst.add_hard({Lit::pos(39)});
  BruteForceSolver bf;
  EXPECT_EQ(bf.solve(inst).status, MaxSatStatus::Unknown);
}

/// Random WCNF generator for the cross-check sweeps.
WcnfInstance random_wcnf(util::Rng& rng, std::uint32_t num_vars,
                         std::size_t num_hard, std::size_t num_soft,
                         Weight max_weight) {
  WcnfInstance inst(num_vars);
  for (std::size_t i = 0; i < num_hard; ++i) {
    Clause c;
    const std::size_t len = 1 + rng.below(3);
    for (std::size_t j = 0; j < len; ++j) {
      c.push_back(Lit::make(static_cast<logic::Var>(rng.below(num_vars)),
                            rng.chance(0.5)));
    }
    inst.add_hard(std::move(c));
  }
  for (std::size_t i = 0; i < num_soft; ++i) {
    Clause c;
    const std::size_t len = 1 + rng.below(2);
    for (std::size_t j = 0; j < len; ++j) {
      c.push_back(Lit::make(static_cast<logic::Var>(rng.below(num_vars)),
                            rng.chance(0.5)));
    }
    inst.add_soft(std::move(c), 1 + rng.below(max_weight));
  }
  return inst;
}

// Property sweep: every exact solver agrees with the brute-force oracle on
// random weighted instances (both cost and feasibility).
class MaxSatCrossCheck : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MaxSatCrossCheck, AllSolversMatchBruteForce) {
  util::Rng rng(GetParam());
  for (int round = 0; round < 15; ++round) {
    const auto num_vars = static_cast<std::uint32_t>(3 + rng.below(8));
    const auto inst = random_wcnf(rng, num_vars, num_vars + rng.below(10),
                                  1 + rng.below(8), 10);
    BruteForceSolver oracle;
    const auto expected = oracle.solve(inst);
    ASSERT_NE(expected.status, MaxSatStatus::Unknown);
    for (auto& s : all_exact_solvers()) {
      const auto r = s->solve(inst);
      ASSERT_EQ(r.status, expected.status)
          << s->name() << " seed " << GetParam() << " round " << round;
      if (r.status == MaxSatStatus::Optimal) {
        EXPECT_EQ(r.cost, expected.cost)
            << s->name() << " seed " << GetParam() << " round " << round;
        EXPECT_TRUE(inst.satisfies_hard(r.model)) << s->name();
        EXPECT_EQ(inst.cost_of(r.model), r.cost) << s->name();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaxSatCrossCheck,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

// Heavier weights exercise the weight-splitting paths (wmin arithmetic).
TEST(MaxSat, LargeWeightSpread) {
  util::Rng rng(1234);
  for (int round = 0; round < 10; ++round) {
    const auto inst = random_wcnf(rng, 6, 8, 5, 1'000'000);
    BruteForceSolver oracle;
    const auto expected = oracle.solve(inst);
    for (auto& s : all_exact_solvers()) {
      const auto r = s->solve(inst);
      ASSERT_EQ(r.status, expected.status) << s->name();
      if (r.status == MaxSatStatus::Optimal) {
        EXPECT_EQ(r.cost, expected.cost) << s->name() << " round " << round;
      }
    }
  }
}

TEST(MaxSat, DuplicateSoftLiteralsAccumulate) {
  WcnfInstance inst;
  inst.add_hard({Lit::neg(0)});
  inst.add_soft_unit(Lit::pos(0), 2);
  inst.add_soft_unit(Lit::pos(0), 3);  // same literal again
  for (auto& s : all_exact_solvers()) expect_optimal(*s, inst, 5);
}

TEST(MaxSat, CancellationYieldsUnknown) {
  WcnfInstance inst;
  inst.add_hard({Lit::pos(0), Lit::pos(1)});
  inst.add_soft_unit(Lit::neg(0), 1);
  inst.add_soft_unit(Lit::neg(1), 1);
  auto token = std::make_shared<util::CancelToken>();
  token->cancel();
  for (auto& s : all_exact_solvers()) {
    EXPECT_EQ(s->solve(inst, token).status, MaxSatStatus::Unknown) << s->name();
  }
}

// ----------------------------------------------------------- portfolio --

TEST(Portfolio, SolvesAndReportsWinner) {
  WcnfInstance inst;
  inst.add_hard({Lit::neg(0), Lit::neg(1)});
  inst.add_soft_unit(Lit::pos(0), 7);
  inst.add_soft_unit(Lit::pos(1), 4);
  auto portfolio = PortfolioSolver::make_default();
  const auto r = portfolio.solve(inst);
  ASSERT_EQ(r.status, MaxSatStatus::Optimal);
  EXPECT_EQ(r.cost, 4u);
  EXPECT_FALSE(r.solver_name.empty());
  EXPECT_NE(r.solver_name, "portfolio");  // a member won
}

TEST(Portfolio, MatchesBruteForceOnRandomInstances) {
  util::Rng rng(31415);
  auto portfolio = PortfolioSolver::make_default();
  for (int round = 0; round < 10; ++round) {
    const auto inst = random_wcnf(rng, 7, 12, 6, 50);
    BruteForceSolver oracle;
    const auto expected = oracle.solve(inst);
    const auto r = portfolio.solve(inst);
    ASSERT_EQ(r.status, expected.status) << "round " << round;
    if (r.status == MaxSatStatus::Optimal) {
      EXPECT_EQ(r.cost, expected.cost) << "round " << round;
    }
  }
}

TEST(Portfolio, UnsatisfiableHard) {
  WcnfInstance inst;
  inst.add_hard({Lit::pos(0)});
  inst.add_hard({Lit::neg(0)});
  auto portfolio = PortfolioSolver::make_default();
  EXPECT_EQ(portfolio.solve(inst).status, MaxSatStatus::Unsatisfiable);
}

TEST(Portfolio, ExternalCancellation) {
  WcnfInstance inst;
  inst.add_hard({Lit::pos(0)});
  inst.add_soft_unit(Lit::neg(0), 1);
  auto token = std::make_shared<util::CancelToken>();
  token->cancel();
  auto portfolio = PortfolioSolver::make_default();
  // Races are allowed: either a member finished before the cancel was
  // observed (Optimal) or everyone was cancelled (Unknown). Never wrong.
  const auto r = portfolio.solve(inst, token);
  if (r.status == MaxSatStatus::Optimal) {
    EXPECT_EQ(r.cost, 1u);
  }
}

TEST(Portfolio, SolveAllMembersReturnsOnePerMember) {
  WcnfInstance inst;
  inst.add_hard({Lit::neg(0), Lit::neg(1)});
  inst.add_soft_unit(Lit::pos(0), 2);
  inst.add_soft_unit(Lit::pos(1), 9);
  auto portfolio = PortfolioSolver::make_default();
  const auto all = portfolio.solve_all_members(inst);
  ASSERT_EQ(all.size(), portfolio.num_members());
  for (const auto& r : all) {
    EXPECT_EQ(r.status, MaxSatStatus::Optimal) << r.solver_name;
    EXPECT_EQ(r.cost, 2u) << r.solver_name;
  }
}

}  // namespace
}  // namespace fta::maxsat
