// Weighted Fu–Malik (WPM1) core-guided MaxSAT.
//
// Each UNSAT core splits its soft clauses: the member keeps its weight
// minus the core minimum, and a clone carrying the minimum weight is
// relaxed with a fresh variable; an exactly-one constraint over the fresh
// relaxers admits exactly one "free" violation per core. The lower bound
// grows by the core minimum per iteration. Included as a classic,
// structurally different portfolio member (Davies & Bacchus [5] lineage
// cited by the paper).
#pragma once

#include "maxsat/solver.hpp"
#include "sat/solver.hpp"

namespace fta::maxsat {

struct FuMalikOptions {
  sat::SolverOptions sat;
};

class FuMalikSolver final : public MaxSatSolver {
 public:
  explicit FuMalikSolver(FuMalikOptions opts = {}) : opts_(opts) {}

  MaxSatResult solve(const WcnfInstance& instance,
                     util::CancelTokenPtr cancel = nullptr) override;

  std::string name() const override { return "fu-malik"; }

 private:
  FuMalikOptions opts_;
};

}  // namespace fta::maxsat
