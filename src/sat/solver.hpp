// A CDCL SAT solver (MiniSat/Glucose lineage), built for this library.
//
// Features: two-watched-literal propagation over an arena-backed clause
// database, EVSIDS decision heuristic with phase saving, first-UIP conflict
// analysis with recursive clause minimisation, LBD-aware learnt-clause
// reduction, Luby restarts, incremental solving under assumptions with
// final-conflict (unsat core) extraction, conflict budgets and cooperative
// cancellation for portfolio use. It solves flat CNF: every clause,
// binaries included, lives in the arena behind the same two watches, and
// a reason clause keeps its implied literal in slot 0.
//
// The MaxSAT layer drives this solver both iteratively (solution-improving
// search) and incrementally (core-guided search over assumption literals).
//
// Persistent sessions: a Solver instance may be kept alive across many
// solve() calls with clause additions in between — learnt clauses, saved
// phases and variable activities all carry over, which is what makes the
// incremental MaxSAT layer (maxsat/incremental) pay off. Retractable
// constraints use activation selectors: new_selector() mints a guard
// variable, add_retractable_clause() attaches clauses that only bind while
// the selector is assumed true, and retire_selector() permanently
// deactivates (and garbage-collects) everything a selector guards.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "logic/cnf.hpp"
#include "logic/lit.hpp"
#include "sat/clause_arena.hpp"
#include "util/cancel.hpp"

namespace fta::sat {

using logic::LBool;
using logic::Lit;
using logic::Var;

enum class SolveResult : std::uint8_t {
  Sat,
  Unsat,
  Unknown,  ///< Budget exhausted or cancelled.
};

struct SolverStats {
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t restarts = 0;
  std::uint64_t learnt_clauses = 0;
  std::uint64_t removed_clauses = 0;
  std::uint64_t minimized_literals = 0;
};

/// Process-wide SAT effort across every Solver instance, accumulated at
/// each solve() exit. The service's /v1/statsz "sat" block reports these
/// without per-request plumbing.
struct GlobalSatCounters {
  std::uint64_t solves = 0;
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  std::uint64_t conflicts = 0;
};

struct SolverOptions {
  double var_decay = 0.95;
  std::uint32_t restart_base = 100;     ///< Conflicts per Luby unit.
  double learnt_growth = 1.3;           ///< DB limit growth per reduction.
  std::uint32_t initial_learnt_cap = 8192;
  bool phase_saving = true;
  bool default_phase = false;           ///< Polarity picked for fresh vars.
  std::uint64_t conflict_budget = 0;    ///< 0 = unlimited.
  std::uint64_t seed = 0;               ///< Randomises initial activities.
  double random_pick_freq = 0.0;        ///< Probability of a random decision.
};

class Solver {
 public:
  explicit Solver(SolverOptions opts = {});

  // --- problem construction ---------------------------------------------

  Var new_var();
  void ensure_vars(std::uint32_t n);
  std::uint32_t num_vars() const noexcept {
    return static_cast<std::uint32_t>(assigns_.size());
  }

  /// Adds a clause; returns false if the database is now trivially UNSAT.
  bool add_clause(std::span<const Lit> lits);
  bool add_clause(std::initializer_list<Lit> lits) {
    return add_clause(std::span<const Lit>(lits.begin(), lits.size()));
  }
  bool add_cnf(const logic::Cnf& cnf);

  /// True while no level-0 contradiction has been derived.
  bool ok() const noexcept { return ok_; }

  // --- solving -------------------------------------------------------------

  SolveResult solve() { return solve({}); }
  SolveResult solve(std::span<const Lit> assumptions);

  /// Process-wide count of solve() calls across every Solver instance.
  /// Tests diff it around an operation to prove a path did zero SAT work
  /// (e.g. a memoized repeat request).
  static std::uint64_t global_solve_calls() noexcept;

  /// Process-wide effort aggregates (see GlobalSatCounters).
  static GlobalSatCounters global_counters() noexcept;

  /// After Sat: the satisfying assignment (index = variable).
  const std::vector<bool>& model() const noexcept { return model_; }

  /// After Unsat under assumptions: a subset of the assumptions that is
  /// already unsatisfiable together with the clauses ("final core").
  /// Empty when the clause set is UNSAT regardless of assumptions.
  const std::vector<Lit>& unsat_core() const noexcept { return core_; }

  // --- persistent-session API -------------------------------------------

  /// Marks `v` as frozen: a variable whose meaning outlives any single
  /// solve (soft-clause indicators, basic events). The solver itself never
  /// eliminates variables, so today this is bookkeeping consumed by the
  /// incremental MaxSAT session (frozen variables must never be minted as
  /// activation selectors, and future in-solver simplification must leave
  /// them untouched).
  void set_frozen(Var v, bool frozen);
  bool is_frozen(Var v) const noexcept {
    return v < frozen_.size() && frozen_[v];
  }

  /// Mints an activation selector: a fresh variable `s`, returned as the
  /// positive literal to assume while the clauses guarded by it should
  /// bind. Selectors are tracked so retire_selector() can assert they are
  /// never reused.
  Lit new_selector();

  /// Adds `lits` as a clause that only binds while `selector` (from
  /// new_selector) is assumed true: the stored clause is (lits | ~s).
  /// Returns false if the database became trivially UNSAT (only possible
  /// via propagation of earlier units, not via the guarded clause itself).
  bool add_retractable_clause(std::span<const Lit> lits, Lit selector);
  bool add_retractable_clause(std::initializer_list<Lit> lits, Lit selector) {
    return add_retractable_clause(
        std::span<const Lit>(lits.begin(), lits.size()), selector);
  }

  /// Permanently deactivates a selector: asserts ~s at level 0 (all its
  /// guarded clauses are satisfied forever) and deletes the now-vacuous
  /// guarded clauses plus any learnt clause mentioning the selector, so a
  /// long-lived session does not accumulate dead blocking constraints.
  void retire_selector(Lit selector);

  /// Drops the learnt-clause database (except clauses locked as reasons).
  /// Problem clauses, assignments, saved phases and activities survive;
  /// used by long-lived sessions to bound memory.
  void clear_learnts();

  /// Approximate heap footprint of the solver (arena, watches, per-var
  /// metadata) — the signal sessions use for their memory cap.
  std::size_t memory_bytes() const noexcept;

  // --- control ---------------------------------------------------------

  void set_cancel_token(util::CancelTokenPtr token) { cancel_ = std::move(token); }
  void set_conflict_budget(std::uint64_t budget) { opts_.conflict_budget = budget; }
  const SolverStats& stats() const noexcept { return stats_; }
  const SolverOptions& options() const noexcept { return opts_; }

  /// Suggests a polarity to try first for `v` (overrides saved phase once).
  void set_polarity_hint(Var v, bool value) { polarity_[v] = value; }

 private:
  struct Watcher {
    ClauseRef cref;
    Lit blocker;
  };

  // Core search.
  ClauseRef propagate();
  void analyze(ClauseRef conflict, std::vector<Lit>& learnt, std::uint32_t& bt_level,
               std::uint32_t& lbd);
  void analyze_final(Lit p);
  bool lit_redundant(Lit p, std::uint32_t abstract_levels);
  void backtrack(std::uint32_t level);
  Lit pick_branch();
  void reduce_db();
  void garbage_collect_if_needed();

  // Assignment plumbing.
  LBool value(Var v) const noexcept { return assigns_[v]; }
  LBool value(Lit l) const noexcept { return logic::lit_value(l, assigns_[l.var()]); }
  std::uint32_t level(Var v) const noexcept { return level_[v]; }
  std::uint32_t decision_level() const noexcept {
    return static_cast<std::uint32_t>(trail_lim_.size());
  }
  void enqueue(Lit l, ClauseRef reason);
  void attach(ClauseRef cref);
  void detach(ClauseRef cref);
  bool locked(ClauseRef cref);

  // Heuristics.
  void bump_var(Var v);
  void decay_var_activity() { var_inc_ /= opts_.var_decay; }
  void heap_insert(Var v);
  void heap_update(Var v);
  Var heap_pop();
  bool heap_empty() const noexcept { return heap_.empty(); }
  void heap_sift_up(std::size_t i);
  void heap_sift_down(std::size_t i);

  std::uint32_t compute_lbd(std::span<const Lit> lits);
  bool cancelled() const noexcept { return cancel_ && cancel_->cancelled(); }

  SolverOptions opts_;
  bool ok_ = true;

  ClauseArena arena_;
  std::vector<ClauseRef> problem_clauses_;
  std::vector<ClauseRef> learnt_clauses_;
  std::vector<std::vector<Watcher>> watches_;  // indexed by Lit::index()

  std::vector<LBool> assigns_;
  std::vector<bool> frozen_;         // session-pinned variables
  std::vector<bool> selector_;       // activation selectors (retractable layer)
  std::vector<bool> polarity_;       // saved phases
  std::vector<std::uint32_t> level_;
  std::vector<ClauseRef> reason_;
  std::vector<Lit> trail_;
  std::vector<std::uint32_t> trail_lim_;
  std::size_t qhead_ = 0;

  // EVSIDS heap.
  std::vector<double> activity_;
  std::vector<std::int32_t> heap_pos_;  // -1 when absent
  std::vector<Var> heap_;
  double var_inc_ = 1.0;

  // Scratch for analyze().
  std::vector<std::uint8_t> seen_;
  std::vector<Lit> analyze_stack_;
  std::vector<Var> to_clear_;
  std::vector<std::uint64_t> lbd_stamp_;
  std::uint64_t lbd_counter_ = 0;

  std::vector<bool> model_;
  std::vector<Lit> core_;
  std::vector<Lit> assumptions_;

  std::uint32_t learnt_cap_ = 0;
  SolverStats stats_;
  util::CancelTokenPtr cancel_;
  std::uint64_t rng_state_;
};

}  // namespace fta::sat
