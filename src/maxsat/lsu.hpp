// LSU: linear SAT-UNSAT (solution-improving) Weighted Partial MaxSAT.
//
// Finds any hard-model, reads off its soft cost, asserts "total violated
// weight <= cost - 1" through a generalized totalizer, and repeats until
// UNSAT: the last model is optimal. Strong when good models are easy to
// find; the weighted counting encoding can grow combinatorially for many
// distinct weights, so construction is budgeted and LSU reports Unknown
// (with its best incumbent) when the encoding would explode — in the
// portfolio the core-guided members cover that regime.
#pragma once

#include "maxsat/solver.hpp"
#include "sat/solver.hpp"

namespace fta::maxsat {

struct LsuOptions {
  sat::SolverOptions sat;
  /// Budgets for the generalized-totalizer encoding.
  std::size_t max_encoding_outputs = 100'000;
  std::size_t max_encoding_clauses = 2'000'000;
  std::uint64_t max_iterations = 0;  ///< 0 = unlimited.
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
