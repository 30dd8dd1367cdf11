// Parallel MaxSAT portfolio (the paper's Step 5).
//
// "We have experimentally observed that, quite often, SAT solvers are very
//  good at some instances and not that good at others. [...] our tool
//  executes multiple pre-configured solvers in parallel and picks up the
//  solution of the solver that finishes first."
//
// Each member runs in its own thread on its own SAT solver; the first
// member to return a definitive result (Optimal/Unsatisfiable) wins and
// the shared cancel token stops the others. Members returning Unknown
// never win the race.
//
// Every member solves the one instance handed to solve(), so the
// pipeline's Step 3.5 preprocessing (src/preprocess) benefits every
// member at once: the WCNF is simplified a single time before the race,
// with every soft-clause indicator literal frozen automatically so each
// member's assumption/relaxation machinery still lines up with the soft
// clauses. The pipeline races the four default members; when it holds an
// incremental session, the session's oll-inc and lsu-inc engines stand
// in for oll and lsu (core/pipeline).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "maxsat/solver.hpp"

namespace fta::maxsat {

/// Factory producing a fresh solver per solve() call (members are run
/// concurrently and must not share state).
using SolverFactory = std::function<MaxSatSolverPtr()>;

struct PortfolioMember {
  std::string label;
  SolverFactory make;
};

class PortfolioSolver final : public MaxSatSolver {
 public:
  explicit PortfolioSolver(std::vector<PortfolioMember> members);

  /// The default lineup: two differently-seeded OLL configurations, a
  /// Fu-Malik (WPM1) member, and an LSU member.
  static PortfolioSolver make_default();

  /// The default lineup as a member list, for callers composing custom
  /// portfolios — e.g. the pipeline racing incremental session engines
  /// against a subset of the stateless members.
  static std::vector<PortfolioMember> default_members();

  /// The cancel token's deadline is the race's time limit: on expiry all
  /// members are cancelled and the portfolio reports Unknown (with the
  /// best incumbent, if any).
  MaxSatResult solve(const WcnfInstance& instance,
                     util::CancelTokenPtr cancel = nullptr) override;

  std::string name() const override { return "portfolio"; }

  std::size_t num_members() const noexcept { return members_.size(); }

  /// Runs every member to completion sequentially (no racing): returns all
  /// results, for the ablation benches comparing member behaviour.
  std::vector<MaxSatResult> solve_all_members(const WcnfInstance& instance);

 private:
  std::vector<PortfolioMember> members_;
};

}  // namespace fta::maxsat
