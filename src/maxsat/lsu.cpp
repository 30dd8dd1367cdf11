#include "maxsat/lsu.hpp"

#include <cassert>
#include <optional>

#include "maxsat/totalizer.hpp"
#include "util/timer.hpp"

namespace fta::maxsat {

using logic::Clause;
using logic::Lit;

MaxSatResult LsuSolver::solve(const WcnfInstance& instance,
                              util::CancelTokenPtr cancel) {
  sat::Solver sat(opts_.sat);
  MaxSatResult out = [&]() -> MaxSatResult {
  util::Timer timer;
  MaxSatResult res;
  res.solver_name = name();

  sat.set_cancel_token(cancel);
  sat.ensure_vars(instance.num_vars());
  for (const auto& c : instance.hard()) {
    if (!sat.add_clause(c)) {
      res.status = MaxSatStatus::Unsatisfiable;
      res.seconds = timer.seconds();
      return res;
    }
  }

  // Violation indicators: v_i true whenever soft clause i is falsified
  // (one-directional; the solver may clear v_i when the clause holds).
  std::vector<std::pair<Lit, Weight>> indicators;
  indicators.reserve(instance.soft().size());
  for (const auto& s : instance.soft()) {
    if (s.lits.size() == 1) {
      // Unit soft (l, w): violated exactly when ~l; use ~l directly.
      indicators.emplace_back(~s.lits[0], s.weight);
    } else {
      const Lit v = Lit::pos(sat.new_var());
      Clause c = s.lits;
      c.push_back(v);
      sat.add_clause(c);
      indicators.emplace_back(v, s.weight);
    }
  }

  std::optional<GeneralizedTotalizer> gte;  // built lazily on first bound
  std::uint64_t iterations = 0;

  while (true) {
    if (cancel && cancel->cancelled()) break;
    if (opts_.max_iterations != 0 && iterations >= opts_.max_iterations) break;
    ++iterations;

    ++res.sat_calls;
    const sat::SolveResult r = sat.solve();
    if (r == sat::SolveResult::Unknown) break;
    if (r == sat::SolveResult::Unsat) {
      if (res.has_model()) {
        // The previous incumbent could not be improved: it is optimal.
        res.status = MaxSatStatus::Optimal;
      } else {
        res.status = MaxSatStatus::Unsatisfiable;
      }
      res.seconds = timer.seconds();
      return res;
    }

    std::vector<bool> model(sat.model().begin(),
                            sat.model().begin() + instance.num_vars());
    const Weight cost = instance.cost_of(model);
    if (!res.has_model() || cost < res.cost) {
      res.cost = cost;
      res.model = std::move(model);
    }
    if (res.cost == 0) {
      res.status = MaxSatStatus::Optimal;
      res.seconds = timer.seconds();
      return res;
    }

    if (!gte) {
      if (indicators.empty()) {
        // No softs: any model is optimal (cost 0 handled above).
        res.status = MaxSatStatus::Optimal;
        res.seconds = timer.seconds();
        return res;
      }
      gte = GeneralizedTotalizer::build(sat, indicators,
                                        opts_.max_encoding_outputs,
                                        opts_.max_encoding_clauses,
                                        cancel.get());
      if (!gte) break;  // Encoding too large or cancelled: keep incumbent.
    }
    // Demand strict improvement.
    gte->assert_upper_bound(sat, res.cost - 1);
    if (!sat.ok()) {
      // Bound tightening made the problem trivially UNSAT at level 0.
      res.status = MaxSatStatus::Optimal;
      res.seconds = timer.seconds();
      return res;
    }
  }

  res.status = MaxSatStatus::Unknown;
  res.seconds = timer.seconds();
  return res;
  }();

  const sat::SolverStats& st = sat.stats();
  out.decisions = st.decisions;
  out.propagations = st.propagations;
  out.conflicts = st.conflicts;
  return out;
}

}  // namespace fta::maxsat
