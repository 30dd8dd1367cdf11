#include "maxsat/fu_malik.hpp"

#include <algorithm>
#include <cassert>
#include <unordered_map>

#include "util/timer.hpp"

namespace fta::maxsat {

using logic::Clause;
using logic::Lit;

namespace {
/// Clause-growth budget: clause splitting adds clauses every core, so
/// adversarial (wide-core) instances are abandoned with Unknown instead of
/// thrashing memory; the portfolio's other members cover them.
constexpr std::size_t kMaxAddedClauses = 4'000'000;
}  // namespace

MaxSatResult FuMalikSolver::solve(const WcnfInstance& instance,
                                  util::CancelTokenPtr cancel) {
  util::Timer timer;
  MaxSatResult res;
  res.solver_name = name();

  sat::Solver sat(opts_.sat);
  sat.set_cancel_token(cancel);
  sat.ensure_vars(instance.num_vars());
  for (const auto& c : instance.hard()) {
    if (!sat.add_clause(c)) {
      res.status = MaxSatStatus::Unsatisfiable;
      res.seconds = timer.seconds();
      return res;
    }
  }

  // Working soft clauses; each has a selector literal ~b assumed while the
  // clause is active (hard clause = lits | b).
  struct Soft {
    Clause lits;    // original literals plus any relaxers added later
    Weight weight;
    Lit selector;   // the assumption literal (~b)
  };
  std::vector<Soft> softs;
  std::unordered_map<Lit, std::size_t> by_selector;

  auto add_working_soft = [&](Clause lits, Weight weight) {
    const Lit b = Lit::pos(sat.new_var());
    Clause hard = lits;
    hard.push_back(b);
    sat.add_clause(hard);
    const Lit selector = ~b;
    by_selector.emplace(selector, softs.size());
    softs.push_back(Soft{std::move(lits), weight, selector});
  };

  for (const auto& s : instance.soft()) add_working_soft(s.lits, s.weight);

  Weight lower_bound = 0;
  std::size_t clauses_added = 0;
  std::vector<Lit> assumptions;

  while (true) {
    if (cancel && cancel->cancelled()) break;

    assumptions.clear();
    for (const auto& s : softs) {
      if (s.weight > 0) assumptions.push_back(s.selector);
    }

    ++res.sat_calls;
    const sat::SolveResult r = sat.solve(assumptions);
    if (r == sat::SolveResult::Unknown) break;
    if (r == sat::SolveResult::Sat) {
      res.status = MaxSatStatus::Optimal;
      res.model.assign(sat.model().begin(),
                       sat.model().begin() + instance.num_vars());
      res.cost = instance.cost_of(res.model);
      assert(res.cost == lower_bound && "WPM1 invariant: model cost == lb");
      (void)lower_bound;
      res.seconds = timer.seconds();
      return res;
    }

    const std::vector<Lit> core = sat.unsat_core();
    if (core.empty()) {
      res.status = MaxSatStatus::Unsatisfiable;
      res.seconds = timer.seconds();
      return res;
    }
    ++res.cores;

    Weight min_w = softs[by_selector.at(core.front())].weight;
    for (Lit l : core) {
      min_w = std::min(min_w, softs[by_selector.at(l)].weight);
    }
    lower_bound += min_w;

    // Split every member: residual keeps (w - min_w); a clone relaxed by a
    // fresh variable carries min_w. Exactly one relaxer may fire.
    std::vector<Lit> relaxers;
    relaxers.reserve(core.size());
    for (Lit l : core) {
      Soft& member = softs[by_selector.at(l)];  // note: may reallocate below,
      Clause base = member.lits;                // so copy what we need first
      member.weight -= min_w;
      const Lit r_new = Lit::pos(sat.new_var());
      relaxers.push_back(r_new);
      Clause clone = std::move(base);
      clone.push_back(r_new);
      add_working_soft(std::move(clone), min_w);
    }
    // Exactly-one over the relaxers: at-least-one clause plus a sequential
    // (ladder) at-most-one — O(n) clauses; pairwise would be O(n^2) and
    // ruins wide-core instances.
    sat.add_clause(relaxers);
    if (relaxers.size() > 1) {
      // Sequential counter: s_i = "some relaxer among r_0..r_i fired".
      const std::size_t n = relaxers.size();
      std::vector<Lit> s(n - 1);
      for (auto& l : s) l = Lit::pos(sat.new_var());
      sat.add_clause({~relaxers[0], s[0]});
      for (std::size_t i = 1; i + 1 < n; ++i) {
        sat.add_clause({~relaxers[i], s[i]});
        sat.add_clause({~s[i - 1], s[i]});
        sat.add_clause({~s[i - 1], ~relaxers[i]});
      }
      sat.add_clause({~s[n - 2], ~relaxers[n - 1]});
    }
    // Cloning grows the formula every iteration; give up honestly instead
    // of thrashing memory on instances where WPM1 is the wrong tool.
    clauses_added += relaxers.size() * 4 + core.size();
    if (clauses_added > kMaxAddedClauses) break;
  }

  res.status = MaxSatStatus::Unknown;
  res.seconds = timer.seconds();
  return res;
}

}  // namespace fta::maxsat
