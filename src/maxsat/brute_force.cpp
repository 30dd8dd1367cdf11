#include "maxsat/brute_force.hpp"

#include "util/timer.hpp"

namespace fta::maxsat {

MaxSatResult BruteForceSolver::solve(const WcnfInstance& instance,
                                     util::CancelTokenPtr cancel) {
  util::Timer timer;
  MaxSatResult res;
  res.solver_name = name();
  if (instance.num_vars() > max_vars_) {
    res.seconds = timer.seconds();
    return res;  // Unknown: too large to enumerate
  }
  const std::uint32_t n = instance.num_vars();
  std::vector<bool> assignment(n, false);
  bool found = false;
  Weight best = 0;
  std::vector<bool> best_model;
  for (std::uint64_t mask = 0; mask < (1ULL << n); ++mask) {
    if (cancel && cancel->cancelled()) {
      res.seconds = timer.seconds();
      return res;
    }
    // Liveness for watchdogs: an exhaustive sweep makes no SAT conflicts
    // to tick on.
    if (cancel && (mask & 0xff) == 0) cancel->note_progress();
    for (std::uint32_t v = 0; v < n; ++v) assignment[v] = (mask >> v) & 1;
    if (!instance.satisfies_hard(assignment)) continue;
    const Weight cost = instance.cost_of(assignment);
    if (!found || cost < best) {
      found = true;
      best = cost;
      best_model = assignment;
    }
  }
  res.sat_calls = 1ULL << n;
  if (!found) {
    res.status = MaxSatStatus::Unsatisfiable;
  } else {
    res.status = MaxSatStatus::Optimal;
    res.cost = best;
    res.model = std::move(best_model);
  }
  res.seconds = timer.seconds();
  return res;
}

}  // namespace fta::maxsat
