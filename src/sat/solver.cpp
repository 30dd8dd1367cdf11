#include "sat/solver.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <unordered_map>

#include "util/failpoint.hpp"
#include "util/luby.hpp"

namespace fta::sat {

namespace {
constexpr double kActivityRescale = 1e100;
constexpr double kVarDecay = 0.95;           ///< EVSIDS activity decay.
constexpr std::uint32_t kRestartBase = 100;  ///< Conflicts per Luby unit.
constexpr std::uint32_t kInitialLearntCap = 8192;
constexpr double kLearntGrowth = 1.3;  ///< DB limit growth per reduction.
}

Solver::Solver(SolverOptions opts)
    : opts_(opts), rng_state_(opts.seed * 2654435761u + 1) {
  // Decision levels range over [0, num_vars]; keep one extra stamp slot.
  lbd_stamp_.push_back(0);
}

Var Solver::new_var() {
  const Var v = static_cast<Var>(assigns_.size());
  assigns_.push_back(LBool::Undef);
  selector_.push_back(false);
  polarity_.push_back(false);  // fresh variables try false first
  level_.push_back(0);
  reason_.push_back(kNoClause);
  double act = 0.0;
  if (opts_.seed != 0) {
    // Small random perturbation diversifies portfolio members.
    rng_state_ ^= rng_state_ << 13;
    rng_state_ ^= rng_state_ >> 7;
    rng_state_ ^= rng_state_ << 17;
    act = 1e-9 * static_cast<double>(rng_state_ % 1024);
  }
  activity_.push_back(act);
  heap_pos_.push_back(-1);
  seen_.push_back(0);
  lbd_stamp_.push_back(0);
  watches_.emplace_back();
  watches_.emplace_back();
  heap_insert(v);
  return v;
}

void Solver::ensure_vars(std::uint32_t n) {
  while (num_vars() < n) new_var();
}

// ---------------------------------------------------------------- heap --

void Solver::heap_sift_up(std::size_t i) {
  const Var v = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (activity_[heap_[parent]] >= activity_[v]) break;
    heap_[i] = heap_[parent];
    heap_pos_[heap_[i]] = static_cast<std::int32_t>(i);
    i = parent;
  }
  heap_[i] = v;
  heap_pos_[v] = static_cast<std::int32_t>(i);
}

void Solver::heap_sift_down(std::size_t i) {
  const Var v = heap_[i];
  const std::size_t n = heap_.size();
  while (true) {
    const std::size_t left = 2 * i + 1;
    if (left >= n) break;
    const std::size_t right = left + 1;
    const std::size_t child =
        (right < n && activity_[heap_[right]] > activity_[heap_[left]]) ? right
                                                                        : left;
    if (activity_[heap_[child]] <= activity_[v]) break;
    heap_[i] = heap_[child];
    heap_pos_[heap_[i]] = static_cast<std::int32_t>(i);
    i = child;
  }
  heap_[i] = v;
  heap_pos_[v] = static_cast<std::int32_t>(i);
}

void Solver::heap_insert(Var v) {
  if (heap_pos_[v] >= 0) return;
  heap_.push_back(v);
  heap_pos_[v] = static_cast<std::int32_t>(heap_.size() - 1);
  heap_sift_up(heap_.size() - 1);
}

void Solver::heap_update(Var v) {
  if (heap_pos_[v] >= 0) heap_sift_up(static_cast<std::size_t>(heap_pos_[v]));
}

Var Solver::heap_pop() {
  const Var top = heap_[0];
  heap_pos_[top] = -1;
  if (heap_.size() > 1) {
    heap_[0] = heap_.back();
    heap_pos_[heap_[0]] = 0;
    heap_.pop_back();
    heap_sift_down(0);
  } else {
    heap_.pop_back();
  }
  return top;
}

void Solver::bump_var(Var v) {
  activity_[v] += var_inc_;
  if (activity_[v] > kActivityRescale) {
    for (auto& a : activity_) a *= 1.0 / kActivityRescale;
    var_inc_ *= 1.0 / kActivityRescale;
  }
  heap_update(v);
}

// ------------------------------------------------------------- clauses --

void Solver::attach(ClauseRef cref) {
  ClauseView c = arena_.view(cref);
  assert(c.size() >= 2);
  watches_[(~c[0]).index()].push_back({cref, c[1]});
  watches_[(~c[1]).index()].push_back({cref, c[0]});
}

void Solver::detach(ClauseRef cref) {
  ClauseView c = arena_.view(cref);
  auto remove_from = [&](Lit watched) {
    auto& ws = watches_[(~watched).index()];
    for (std::size_t i = 0; i < ws.size(); ++i) {
      if (ws[i].cref == cref) {
        ws[i] = ws.back();
        ws.pop_back();
        return;
      }
    }
    assert(false && "watcher not found");
  };
  remove_from(c[0]);
  remove_from(c[1]);
}

bool Solver::locked(ClauseRef cref) {
  ClauseView c = arena_.view(cref);
  const Lit first = c[0];
  return value(first) == LBool::True && reason_[first.var()] == cref;
}

bool Solver::add_clause(std::span<const Lit> lits) {
  assert(decision_level() == 0);
  if (!ok_) return false;

  // Level-0 simplification: sort, drop duplicates/false literals, detect
  // tautologies and already-satisfied clauses.
  std::vector<Lit> c(lits.begin(), lits.end());
  for (Lit l : c) ensure_vars(l.var() + 1);
  std::sort(c.begin(), c.end());
  c.erase(std::unique(c.begin(), c.end()), c.end());
  std::vector<Lit> kept;
  kept.reserve(c.size());
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (i + 1 < c.size() && c[i + 1] == ~c[i]) return true;  // tautology
    const LBool v = value(c[i]);
    if (v == LBool::True) return true;  // satisfied at level 0
    if (v == LBool::False) continue;    // falsified at level 0: drop
    kept.push_back(c[i]);
  }

  if (kept.empty()) {
    ok_ = false;
    return false;
  }
  if (kept.size() == 1) {
    enqueue(kept[0], kNoClause);
    ok_ = propagate() == kNoClause;
    return ok_;
  }
  const ClauseRef cref = arena_.alloc(kept, /*learnt=*/false);
  problem_clauses_.push_back(cref);
  attach(cref);
  return true;
}

bool Solver::add_cnf(const logic::Cnf& cnf) {
  ensure_vars(cnf.num_vars());
  for (const auto& clause : cnf.clauses()) {
    if (!add_clause(clause)) return false;
  }
  return true;
}

// --------------------------------------------------------------- search --

void Solver::enqueue(Lit l, ClauseRef reason) {
  const Var v = l.var();
  assert(value(v) == LBool::Undef);
  assigns_[v] = logic::lbool_of(!l.negated());
  level_[v] = decision_level();
  reason_[v] = reason;
  trail_.push_back(l);
}

ClauseRef Solver::propagate() {
  ClauseRef conflict = kNoClause;
  while (qhead_ < trail_.size()) {
    const Lit p = trail_[qhead_++];
    ++stats_.propagations;
    auto& ws = watches_[p.index()];
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < ws.size()) {
      const Watcher w = ws[i];
      if (value(w.blocker) == LBool::True) {
        ws[j++] = ws[i++];
        continue;
      }
      ClauseView c = arena_.view(w.cref);
      const Lit false_lit = ~p;
      if (c[0] == false_lit) {
        c.set(0, c[1]);
        c.set(1, false_lit);
      }
      ++i;
      const Lit first = c[0];
      const Watcher w_new{w.cref, first};
      if (first != w.blocker && value(first) == LBool::True) {
        ws[j++] = w_new;
        continue;
      }
      // Look for a new literal to watch.
      bool found = false;
      for (std::uint32_t k = 2; k < c.size(); ++k) {
        if (value(c[k]) != LBool::False) {
          c.set(1, c[k]);
          c.set(k, false_lit);
          watches_[(~c[1]).index()].push_back(w_new);
          found = true;
          break;
        }
      }
      if (found) continue;
      // Clause is unit or conflicting.
      ws[j++] = w_new;
      if (value(first) == LBool::False) {
        conflict = w.cref;
        qhead_ = trail_.size();
        while (i < ws.size()) ws[j++] = ws[i++];
      } else {
        enqueue(first, w.cref);
      }
    }
    ws.resize(j);
    if (conflict != kNoClause) break;
  }
  return conflict;
}

void Solver::backtrack(std::uint32_t target_level) {
  if (decision_level() <= target_level) return;
  const std::size_t bound = trail_lim_[target_level];
  for (std::size_t i = trail_.size(); i-- > bound;) {
    const Var v = trail_[i].var();
    assigns_[v] = LBool::Undef;
    polarity_[v] = !trail_[i].negated();  // phase saving
    reason_[v] = kNoClause;
    heap_insert(v);
  }
  trail_.resize(bound);
  trail_lim_.resize(target_level);
  qhead_ = bound;
}

std::uint32_t Solver::compute_lbd(std::span<const Lit> lits) {
  ++lbd_counter_;
  std::uint32_t lbd = 0;
  for (Lit l : lits) {
    const std::uint32_t lv = level(l.var());
    if (lv == 0) continue;
    if (lbd_stamp_[lv] != lbd_counter_) {
      lbd_stamp_[lv] = lbd_counter_;
      ++lbd;
    }
  }
  return lbd == 0 ? 1 : lbd;
}

void Solver::analyze(ClauseRef conflict, std::vector<Lit>& learnt,
                     std::uint32_t& bt_level, std::uint32_t& lbd) {
  learnt.clear();
  learnt.push_back(logic::kNoLit);  // placeholder for the asserting literal
  std::uint32_t path_count = 0;
  Lit p = logic::kNoLit;
  std::size_t index = trail_.size();

  ClauseRef reason = conflict;
  do {
    assert(reason != kNoClause);
    ClauseView c = arena_.view(reason);
    if (c.learnt()) {
      // Glucose-style dynamic LBD update keeps good clauses alive.
      ++lbd_counter_;
      std::uint32_t new_lbd = 0;
      for (std::uint32_t j = 0; j < c.size(); ++j) {
        const std::uint32_t lv = level(c[j].var());
        if (lv == 0) continue;
        if (lbd_stamp_[lv] != lbd_counter_) {
          lbd_stamp_[lv] = lbd_counter_;
          ++new_lbd;
        }
      }
      if (new_lbd != 0 && new_lbd < c.lbd()) c.set_lbd(new_lbd);
    }
    for (std::uint32_t j = (p == logic::kNoLit ? 0u : 1u); j < c.size(); ++j) {
      const Lit q = c[j];
      const Var v = q.var();
      if (!seen_[v] && level(v) > 0) {
        bump_var(v);
        seen_[v] = 1;
        if (level(v) >= decision_level()) {
          ++path_count;
        } else {
          learnt.push_back(q);
        }
      }
    }
    // Select next literal on the current decision level to resolve on.
    while (!seen_[trail_[index - 1].var()]) --index;
    p = trail_[--index];
    reason = reason_[p.var()];
    seen_[p.var()] = 0;
    --path_count;
  } while (path_count > 0);
  learnt[0] = ~p;

  // Conflict-clause minimisation (deep check against implied literals).
  to_clear_.clear();
  for (std::size_t k = 1; k < learnt.size(); ++k) to_clear_.push_back(learnt[k].var());
  std::uint32_t abstract_levels = 0;
  for (std::size_t k = 1; k < learnt.size(); ++k) {
    abstract_levels |= 1u << (level(learnt[k].var()) & 31);
  }
  std::size_t kept = 1;
  for (std::size_t k = 1; k < learnt.size(); ++k) {
    const Var v = learnt[k].var();
    if (reason_[v] == kNoClause || !lit_redundant(learnt[k], abstract_levels)) {
      learnt[kept++] = learnt[k];
    } else {
      ++stats_.minimized_literals;
    }
  }
  learnt.resize(kept);
  for (Var v : to_clear_) seen_[v] = 0;

  // Find the backtrack level: highest level among learnt[1..].
  bt_level = 0;
  if (learnt.size() > 1) {
    std::size_t max_idx = 1;
    for (std::size_t k = 2; k < learnt.size(); ++k) {
      if (level(learnt[k].var()) > level(learnt[max_idx].var())) max_idx = k;
    }
    std::swap(learnt[1], learnt[max_idx]);
    bt_level = level(learnt[1].var());
  }
  lbd = compute_lbd(learnt);
}

bool Solver::lit_redundant(Lit p, std::uint32_t abstract_levels) {
  analyze_stack_.clear();
  analyze_stack_.push_back(p);
  const std::size_t top = to_clear_.size();
  while (!analyze_stack_.empty()) {
    const Lit q = analyze_stack_.back();
    analyze_stack_.pop_back();
    assert(reason_[q.var()] != kNoClause);
    ClauseView c = arena_.view(reason_[q.var()]);
    for (std::uint32_t i = 1; i < c.size(); ++i) {
      const Lit l = c[i];
      const Var v = l.var();
      if (seen_[v] || level(v) == 0) continue;
      if (reason_[v] != kNoClause &&
          ((1u << (level(v) & 31)) & abstract_levels) != 0) {
        seen_[v] = 1;
        analyze_stack_.push_back(l);
        to_clear_.push_back(v);
      } else {
        for (std::size_t j = top; j < to_clear_.size(); ++j) seen_[to_clear_[j]] = 0;
        to_clear_.resize(top);
        return false;
      }
    }
  }
  return true;
}

void Solver::analyze_final(Lit p) {
  core_.clear();
  core_.push_back(~p);  // the assumption literal itself
  if (decision_level() == 0) return;
  seen_[p.var()] = 1;
  for (std::size_t i = trail_.size(); i-- > trail_lim_[0];) {
    const Var v = trail_[i].var();
    if (!seen_[v]) continue;
    if (reason_[v] == kNoClause) {
      assert(level(v) > 0);
      // A decision inside the assumption prefix: part of the core.
      core_.push_back(trail_[i]);
    } else {
      ClauseView c = arena_.view(reason_[v]);
      for (std::uint32_t j = 1; j < c.size(); ++j) {
        if (level(c[j].var()) > 0) seen_[c[j].var()] = 1;
      }
    }
    seen_[v] = 0;
  }
  seen_[p.var()] = 0;
}

Lit Solver::pick_branch() {
  // Occasional random decisions (portfolio diversification).
  if (opts_.random_pick_freq > 0.0) {
    rng_state_ ^= rng_state_ << 13;
    rng_state_ ^= rng_state_ >> 7;
    rng_state_ ^= rng_state_ << 17;
    const double r = static_cast<double>(rng_state_ % 100000) / 100000.0;
    if (r < opts_.random_pick_freq && !heap_.empty()) {
      const Var v = heap_[rng_state_ % heap_.size()];
      if (value(v) == LBool::Undef) return Lit::make(v, !polarity_[v]);
    }
  }
  while (!heap_empty()) {
    const Var v = heap_pop();
    if (value(v) == LBool::Undef) return Lit::make(v, !polarity_[v]);
  }
  return logic::kNoLit;
}

void Solver::reduce_db() {
  // Glucose-flavoured policy: never remove locked clauses or glue clauses
  // (LBD <= 2); among the rest drop the worse half by (LBD, size).
  std::vector<ClauseRef> candidates;
  candidates.reserve(learnt_clauses_.size());
  std::vector<ClauseRef> keep;
  keep.reserve(learnt_clauses_.size());
  for (ClauseRef cref : learnt_clauses_) {
    ClauseView c = arena_.view(cref);
    if (locked(cref) || c.lbd() <= 2 || c.size() <= 2) {
      keep.push_back(cref);
    } else {
      candidates.push_back(cref);
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [this](ClauseRef a, ClauseRef b) {
              ClauseView ca = arena_.view(a);
              ClauseView cb = arena_.view(b);
              if (ca.lbd() != cb.lbd()) return ca.lbd() < cb.lbd();
              return ca.size() < cb.size();
            });
  const std::size_t keep_count = candidates.size() / 2;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (i < keep_count) {
      keep.push_back(candidates[i]);
    } else {
      detach(candidates[i]);
      arena_.view(candidates[i]).mark_deleted();
      arena_.note_deleted(candidates[i]);
      ++stats_.removed_clauses;
    }
  }
  learnt_clauses_ = std::move(keep);
  garbage_collect_if_needed();
}

void Solver::garbage_collect_if_needed() {
  if (arena_.wasted() * 3 < arena_.size()) return;
  std::unordered_map<ClauseRef, ClauseRef> remap;
  remap.reserve(problem_clauses_.size() + learnt_clauses_.size());
  arena_.collect([&](ClauseRef from, ClauseRef to) { remap.emplace(from, to); });
  auto patch = [&](ClauseRef& ref) {
    if (ref != kNoClause) ref = remap.at(ref);
  };
  for (auto& ref : problem_clauses_) patch(ref);
  for (auto& ref : learnt_clauses_) patch(ref);
  for (Lit l : trail_) patch(reason_[l.var()]);
  // Watches are rebuilt wholesale; the watched pair is stored in the first
  // two literal slots, which compaction preserves.
  for (auto& ws : watches_) ws.clear();
  for (ClauseRef cref : problem_clauses_) attach(cref);
  for (ClauseRef cref : learnt_clauses_) attach(cref);
}

// ------------------------------------------------- persistent sessions --

Lit Solver::new_selector() {
  const Var v = new_var();
  selector_[v] = true;
  // Selectors default to "inactive": if the search ever branches on one,
  // trying false first keeps the guarded clauses vacuously satisfied.
  polarity_[v] = false;
  return Lit::pos(v);
}

bool Solver::add_retractable_clause(std::span<const Lit> lits, Lit selector) {
  assert(!selector.negated() && selector.var() < num_vars() &&
         selector_[selector.var()] && "guard must come from new_selector()");
  std::vector<Lit> guarded(lits.begin(), lits.end());
  guarded.push_back(~selector);
  return add_clause(guarded);
}

void Solver::retire_selector(Lit selector) {
  assert(!selector.negated() && selector.var() < num_vars() &&
         selector_[selector.var()] && "not an active selector");
  if (!ok_) return;
  assert(decision_level() == 0);
  // ~s at level 0: every guarded clause is satisfied forever.
  if (!add_clause({~selector})) return;
  // Garbage-collect what the selector guarded. Clauses containing ~s are
  // permanently satisfied; learnt clauses containing s carry a permanently
  // false literal and would only rot in the database. Locked clauses
  // (reasons of level-0 assignments) must stay.
  const Lit dead_true = ~selector;
  const Lit dead_false = selector;
  auto purge = [&](std::vector<ClauseRef>& list, bool learnt_list) {
    std::size_t kept = 0;
    for (ClauseRef cref : list) {
      ClauseView c = arena_.view(cref);
      bool drop = false;
      for (std::uint32_t i = 0; i < c.size() && !drop; ++i) {
        drop = c[i] == dead_true || (learnt_list && c[i] == dead_false);
      }
      if (drop && !locked(cref)) {
        detach(cref);
        c.mark_deleted();
        arena_.note_deleted(cref);
        ++stats_.removed_clauses;
      } else {
        list[kept++] = cref;
      }
    }
    list.resize(kept);
  };
  purge(problem_clauses_, false);
  purge(learnt_clauses_, true);
  garbage_collect_if_needed();
}

std::size_t Solver::memory_bytes() const noexcept {
  std::size_t bytes = arena_.size() * sizeof(std::uint32_t);
  for (const auto& ws : watches_) bytes += ws.capacity() * sizeof(Watcher);
  // Per-variable metadata (assignment, phase, level, reason, activity,
  // heap slot, analyze scratch, LBD stamp): ~40 bytes each.
  bytes += static_cast<std::size_t>(num_vars()) * 40;
  bytes += (problem_clauses_.capacity() + learnt_clauses_.capacity()) *
           sizeof(ClauseRef);
  bytes += trail_.capacity() * sizeof(Lit);
  return bytes;
}

namespace {
std::atomic<std::uint64_t> g_solve_calls{0};
std::atomic<std::uint64_t> g_decisions{0};
std::atomic<std::uint64_t> g_propagations{0};
std::atomic<std::uint64_t> g_conflicts{0};
}  // namespace

std::uint64_t Solver::global_solve_calls() noexcept {
  return g_solve_calls.load(std::memory_order_relaxed);
}

GlobalSatCounters Solver::global_counters() noexcept {
  GlobalSatCounters c;
  c.solves = g_solve_calls.load(std::memory_order_relaxed);
  c.decisions = g_decisions.load(std::memory_order_relaxed);
  c.propagations = g_propagations.load(std::memory_order_relaxed);
  c.conflicts = g_conflicts.load(std::memory_order_relaxed);
  return c;
}

SolveResult Solver::solve(std::span<const Lit> assumptions) {
  g_solve_calls.fetch_add(1, std::memory_order_relaxed);
  // Per-call effort deltas drain into the process-wide aggregates on
  // every exit path.
  struct Tally {
    Solver* s;
    SolverStats base;
    ~Tally() {
      const SolverStats& now = s->stats_;
      g_decisions.fetch_add(now.decisions - base.decisions,
                            std::memory_order_relaxed);
      g_propagations.fetch_add(now.propagations - base.propagations,
                               std::memory_order_relaxed);
      g_conflicts.fetch_add(now.conflicts - base.conflicts,
                            std::memory_order_relaxed);
    }
  } tally{this, stats_};
  // Wedge site for watchdog tests: sits BEFORE the liveness tick so an
  // armed delay is a genuine progress-free stall, exactly what a hung
  // solve looks like from the engine's side.
  FTA_FAILPOINT("sat.solve");
  // Conflict-free solves (common in core-guided inner loops) must still
  // register as liveness, or a fast-churning session looks wedged.
  if (cancel_) cancel_->note_progress();
  if (!ok_) {
    core_.clear();
    return SolveResult::Unsat;
  }
  assumptions_.assign(assumptions.begin(), assumptions.end());
  for (Lit a : assumptions_) ensure_vars(a.var() + 1);
  core_.clear();

  if (learnt_cap_ == 0) learnt_cap_ = kInitialLearntCap;
  std::uint64_t restart_count = 0;
  std::uint64_t conflicts_until_restart =
      kRestartBase * util::luby(++restart_count);
  std::vector<Lit> learnt;

  while (true) {
    const ClauseRef conflict = propagate();
    if (conflict != kNoClause) {
      ++stats_.conflicts;
      // One liveness tick per conflict: the engine watchdog distinguishes
      // a hard instance (conflicts keep flowing) from a wedged solve.
      if (cancel_) cancel_->note_progress();
      if (decision_level() == 0) {
        ok_ = false;
        backtrack(0);
        return SolveResult::Unsat;  // UNSAT regardless of assumptions
      }
      std::uint32_t bt_level = 0;
      std::uint32_t lbd = 0;
      analyze(conflict, learnt, bt_level, lbd);
      // Never undo the assumption prefix wholesale: conflicts below the
      // assumption levels are handled when re-deciding assumptions.
      backtrack(bt_level);
      if (learnt.size() == 1) {
        if (value(learnt[0]) == LBool::Undef) {
          enqueue(learnt[0], kNoClause);
        } else if (value(learnt[0]) == LBool::False) {
          ok_ = false;
          backtrack(0);
          return SolveResult::Unsat;
        }
      } else {
        const ClauseRef cref = arena_.alloc(learnt, /*learnt=*/true);
        arena_.view(cref).set_lbd(lbd);
        learnt_clauses_.push_back(cref);
        ++stats_.learnt_clauses;
        attach(cref);
        enqueue(learnt[0], cref);
      }
      var_inc_ /= kVarDecay;
      if (--conflicts_until_restart == 0) {
        ++stats_.restarts;
        conflicts_until_restart = kRestartBase * util::luby(++restart_count);
        backtrack(0);
      }
      continue;
    }

    // No conflict: bookkeeping, then decide.
    if (cancelled()) {
      backtrack(0);
      return SolveResult::Unknown;
    }
    if (learnt_clauses_.size() >= learnt_cap_) {
      reduce_db();
      learnt_cap_ = static_cast<std::uint32_t>(
          static_cast<double>(learnt_cap_) * kLearntGrowth);
    }

    Lit decision = logic::kNoLit;
    while (decision_level() < assumptions_.size()) {
      const Lit a = assumptions_[decision_level()];
      if (value(a) == LBool::True) {
        // Already implied: open a dummy level to keep indexing aligned.
        trail_lim_.push_back(static_cast<std::uint32_t>(trail_.size()));
      } else if (value(a) == LBool::False) {
        analyze_final(~a);
        backtrack(0);
        return SolveResult::Unsat;
      } else {
        decision = a;
        break;
      }
    }
    if (decision == logic::kNoLit) decision = pick_branch();
    if (decision == logic::kNoLit) {
      // Complete assignment: record the model.
      model_.assign(num_vars(), false);
      for (Var v = 0; v < num_vars(); ++v) {
        model_[v] = value(v) == LBool::True   ? true
                    : value(v) == LBool::False ? false
                                               : polarity_[v];
      }
      backtrack(0);
      return SolveResult::Sat;
    }
    ++stats_.decisions;
    trail_lim_.push_back(static_cast<std::uint32_t>(trail_.size()));
    enqueue(decision, kNoClause);
  }
}

}  // namespace fta::sat
