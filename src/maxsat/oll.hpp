// OLL: core-guided Weighted Partial MaxSAT (the RC2/EvalMaxSAT family).
//
// Soft clauses become assumption literals. Each UNSAT core raises the
// lower bound by the core's minimum weight, reduces member weights, and —
// for cores with several members — introduces a totalizer over the core's
// violation indicators whose outputs become new (cardinality) soft
// literals. The first satisfiable call under the remaining assumptions is
// optimal. This is typically the strongest solver on fault-tree instances
// with fine-grained log-probability weights.
#pragma once

#include <cstdint>

#include "maxsat/solver.hpp"
#include "sat/solver.hpp"

namespace fta::maxsat {

/// Ceiling on cores discovered within one solve. Nested vote gates
/// lowered by expansion can fragment the optimum across thousands of
/// near-equal-weight cores — OLL then burns its whole budget re-cutting
/// the same counting structure (healthy fault-tree instances discover
/// well under a hundred). Hitting the ceiling latches the engine as
/// fragmented and returns Unknown quickly, so a portfolio race moves on
/// and the session pipeline diverts the request to LSU (see
/// MpmcsPipeline::solve_step5).
inline constexpr std::uint64_t kOllCoreCeiling = 2000;

struct OllOptions {
  sat::SolverOptions sat;
  /// Weight stratification (RC2's Boolean lexicographic heuristic):
  /// heavy softs are assumed first; lighter strata join only once the
  /// current set is satisfiable. Often reduces core count drastically on
  /// instances with wide weight spreads (like scaled -log probabilities).
  bool stratified = false;
};

class OllSolver final : public MaxSatSolver {
 public:
  explicit OllSolver(OllOptions opts = {}) : opts_(opts) {}

  MaxSatResult solve(const WcnfInstance& instance,
                     util::CancelTokenPtr cancel = nullptr) override;

  std::string name() const override {
    return opts_.stratified ? "oll-strat" : "oll";
  }

 private:
  OllOptions opts_;
};

}  // namespace fta::maxsat
