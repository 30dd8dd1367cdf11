// Common interface for the Weighted Partial MaxSAT algorithms.
//
// All implementations are exact: when they report Optimal, the returned
// model provably minimises the falsified-soft weight. Unknown is returned
// on cancellation (portfolio lost the race) or resource caps, possibly
// with an incumbent model that upper-bounds the optimum.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "maxsat/instance.hpp"
#include "util/cancel.hpp"

namespace fta::maxsat {

enum class MaxSatStatus : std::uint8_t {
  Optimal,
  Unsatisfiable,  ///< Hard clauses are unsatisfiable.
  Unknown,        ///< Cancelled / budget exhausted.
};

struct MaxSatResult {
  MaxSatStatus status = MaxSatStatus::Unknown;
  Weight cost = 0;             ///< Valid when Optimal (or incumbent cost).
  std::vector<bool> model;     ///< Over instance vars; empty if none found.
  std::string solver_name;
  std::uint64_t sat_calls = 0;
  std::uint64_t cores = 0;     ///< Unsat cores extracted (core-guided only).
  double seconds = 0.0;
  /// Certified lower bound on the optimal cost of the solved instance.
  /// Core-guided solvers certify every extracted core;
  /// solution-improving solvers leave 0, which is always sound. For
  /// Optimal results, cost == lower_bound.
  Weight lower_bound = 0;
  /// Per-solve SAT effort, summed over every SAT call this result made
  /// (deltas for session engines, absolutes for stateless ones).
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  std::uint64_t conflicts = 0;

  bool has_model() const noexcept { return !model.empty(); }
};

class MaxSatSolver {
 public:
  virtual ~MaxSatSolver() = default;

  /// Solves the instance. The cancel token, when set, is polled
  /// cooperatively; cancellation yields status Unknown.
  virtual MaxSatResult solve(const WcnfInstance& instance,
                             util::CancelTokenPtr cancel = nullptr) = 0;

  virtual std::string name() const = 0;
};

using MaxSatSolverPtr = std::unique_ptr<MaxSatSolver>;

}  // namespace fta::maxsat
