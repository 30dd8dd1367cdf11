// LSU: linear SAT-UNSAT (solution-improving) Weighted Partial MaxSAT.
//
// Finds any hard-model, reads off its soft cost, bounds "total violated
// weight <= cost - 1" through a generalized totalizer, and repeats until
// UNSAT: the last model is optimal. Strong when good models are easy to
// find; the weighted counting encoding can grow combinatorially for many
// distinct weights, so construction is budgeted and LSU reports Unknown
// (with its best incumbent) when the encoding would explode — in the
// portfolio the core-guided members cover that regime.
#pragma once

#include <cstddef>

#include "maxsat/solver.hpp"
#include "sat/solver.hpp"

namespace fta::maxsat {

/// Budgets for LSU's generalized-totalizer encoding: distinct sums and
/// emitted clauses.
inline constexpr std::size_t kLsuOutputBudget = 100'000;
inline constexpr std::size_t kLsuClauseBudget = 2'000'000;

struct LsuOptions {
  sat::SolverOptions sat;
};

class LsuSolver final : public MaxSatSolver {
 public:
  explicit LsuSolver(LsuOptions opts = {}) : opts_(opts) {}

  MaxSatResult solve(const WcnfInstance& instance,
                     util::CancelTokenPtr cancel = nullptr) override;

  std::string name() const override { return "lsu"; }

 private:
  LsuOptions opts_;
};

}  // namespace fta::maxsat
