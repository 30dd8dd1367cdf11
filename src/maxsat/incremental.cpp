#include "maxsat/incremental.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "util/failpoint.hpp"
#include "util/timer.hpp"

namespace fta::maxsat {

using logic::Lit;

// ------------------------------------------------------ IncrementalOll --

IncrementalOll::IncrementalOll(std::shared_ptr<const WcnfInstance> instance,
                               OllOptions opts)
    : inst_(std::move(instance)), opts_(opts), sat_(opts.sat) {
  sat_.ensure_vars(inst_->num_vars());
  for (logic::Var v = 0; v < inst_->num_vars(); ++v) sat_.set_frozen(v, true);
  for (const auto& c : inst_->hard()) {
    if (!sat_.add_clause(c)) {
      dead_ = true;
      return;
    }
  }

  // Normalise softs to weighted assumption literals (see OllSolver); the
  // relaxers and the merged weights persist for the session's lifetime.
  std::unordered_map<Lit, Weight> merged;
  for (const auto& s : inst_->soft()) {
    Lit assume;
    if (s.lits.size() == 1) {
      assume = s.lits[0];
    } else {
      const Lit b = Lit::pos(sat_.new_var());
      sat_.set_frozen(b.var(), true);
      logic::Clause relaxed = s.lits;
      relaxed.push_back(b);
      sat_.add_clause(relaxed);
      assume = ~b;
    }
    merged[assume] += s.weight;
  }
  orig_weight_ = merged;  // pre-charge weights; the rebase patch diffs these
  apply_card_blocks(merged);
  base_.pending.assign(merged.begin(), merged.end());
  std::sort(base_.pending.begin(), base_.pending.end(),
            [](const auto& a, const auto& b) {
              return a.second != b.second ? a.second > b.second
                                          : a.first < b.first;
            });
  activate_stratum(base_);
}

void IncrementalOll::apply_card_blocks(
    std::unordered_map<Lit, Weight>& merged) {
  for (const logic::CardinalityBlock& blk : inst_->cards()) {
    if (!blk.forced) continue;
    const auto n = static_cast<std::uint32_t>(blk.inputs.size());
    if (blk.k == 0 || blk.k >= n) continue;
    // Every counted input must be a distinct live soft assumption: the
    // cost decomposition below charges each exactly once.
    std::vector<Lit> sorted(blk.inputs);
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
      continue;
    }
    Weight w_min = 0;
    bool eligible = true;
    for (const Lit in : blk.inputs) {
      const auto it = merged.find(~in);
      if (it == merged.end() || it->second == 0) {
        eligible = false;
        break;
      }
      w_min = (w_min == 0) ? it->second : std::min(w_min, it->second);
    }
    if (!eligible) continue;
    // "count >= k" holds in every model (blk.forced survives Step 3.5 —
    // block variables are frozen there), so the block's soft cost
    // decomposes into k*w_min mandatory, plus w_min per count beyond k,
    // plus each input's residual weight. That is the state OLL reaches
    // after discovering and transforming the block's cores — minus the
    // SAT calls, and counting over the instance encoding's own output
    // variables instead of a re-encoded totalizer.
    for (const Lit in : blk.inputs) {
      const auto it = merged.find(~in);
      it->second -= w_min;
      if (it->second == 0) merged.erase(it);
    }
    base_.lower_bound += static_cast<Weight>(blk.k) * w_min;
    // Adopt the network: the layout's variables already live in the
    // solver's instance range; only the upward half still missing up to
    // k+1 is emitted, making ~o_{k+1} the block's first guard. A rebase
    // re-runs this and must find the already-adopted network instead of
    // emitting a duplicate.
    std::size_t idx;
    const auto cached = totalizer_cache_.find(sorted);
    if (cached != totalizer_cache_.end()) {
      idx = cached->second;
    } else {
      totalizers_.emplace_back(sat_, blk.layout, blk.k + 1);
      idx = totalizers_.size() - 1;
      totalizer_cache_.emplace(std::move(sorted), idx);
    }
    const Lit guard = ~totalizers_[idx].at_least(blk.k + 1);
    output_info_.emplace(guard, OutputInfo{idx, blk.k + 1});
    merged[guard] += w_min;
  }
}

bool IncrementalOll::rebase(std::shared_ptr<const WcnfInstance> instance) {
  // Precondition (caller-enforced): `instance` differs from the current
  // one in soft weights only — identical hards and cardinality metadata.
  for (const auto& s : instance->soft()) {
    if (s.lits.size() != 1) return false;
  }
  inst_ = std::move(instance);
  sat_.ensure_vars(inst_->num_vars());
  if (dead_) return true;  // hard side unchanged: still unsatisfiable
  std::unordered_map<Lit, Weight> merged;
  for (const auto& s : inst_->soft()) merged[s.lits[0]] += s.weight;

  // In-place patch. The transformation invariant is an identity over all
  // models M:  cost_old(M) = lower_bound + Σ_{l active} w(l)·[l false in M]
  // — guards (totalizer outputs) are defined variables, so both sides are
  // functions of the original variables. Reweighting soft l from w_old to
  // w_new adds (w_new − w_old)·[l false] to the left side; adding exactly
  // that delta to l's *active residual* restores the identity without
  // touching the lower bound, guard weights, or any encoded totalizer —
  // i.e. the entire charge history survives and the next solve resumes
  // from the transformed state. The patch is infeasible only when a soft
  // already charged more than its new weight covers (residual would go
  // negative); then — or while strata are still pending, where residuals
  // split between active and pending — fall back to rebuilding the
  // transformation state (the SAT solver still survives either way).
  if (!opts_.stratified && base_.pending.empty()) {
    bool feasible = true;
    bool changed = false;
    std::vector<std::pair<Lit, Weight>> patch;  // (lit, new residual)
    const auto consider = [&](Lit l, Weight w_new) {
      const auto it = orig_weight_.find(l);
      const Weight w_old = it == orig_weight_.end() ? 0 : it->second;
      if (w_new == w_old) return;
      changed = true;
      const Weight residual = base_.active.weight(l);
      if (w_new >= w_old) {
        patch.emplace_back(l, residual + (w_new - w_old));
      } else if (residual >= w_old - w_new) {
        patch.emplace_back(l, residual - (w_old - w_new));
      } else {
        feasible = false;  // charged beyond the new weight
      }
    };
    for (const auto& [l, w] : merged) consider(l, w);
    for (const auto& [l, w] : orig_weight_) {
      if (merged.find(l) == merged.end()) consider(l, 0);
    }
    if (feasible) {
      for (const auto& [l, w] : patch) base_.active.set_weight(l, w);
      if (changed) base_optimal_ = false;
      fragmented_ = false;
      orig_weight_ = std::move(merged);
      ++patched_rebases_;
      return true;
    }
  }

  base_ = State{};
  base_optimal_ = false;
  // Fragmentation is weight-dependent; give OLL a fresh chance under the
  // new weights (the core ceiling re-latches if the pathology persists).
  fragmented_ = false;
  orig_weight_ = merged;
  apply_card_blocks(merged);
  base_.pending.assign(merged.begin(), merged.end());
  std::sort(base_.pending.begin(), base_.pending.end(),
            [](const auto& a, const auto& b) {
              return a.second != b.second ? a.second > b.second
                                          : a.first < b.first;
            });
  activate_stratum(base_);
  return true;
}

bool IncrementalOll::activate_stratum(State& st) {
  if (st.pending.empty()) return false;
  const Weight threshold =
      opts_.stratified ? st.pending.front().second / 2 : Weight{0};
  std::size_t taken = 0;
  while (taken < st.pending.size() && st.pending[taken].second > threshold) {
    st.active.add(st.pending[taken].first, st.pending[taken].second);
    ++taken;
  }
  st.pending.erase(st.pending.begin(),
                   st.pending.begin() + static_cast<std::ptrdiff_t>(taken));
  return true;
}

Totalizer& IncrementalOll::core_totalizer(const std::vector<Lit>& violated) {
  auto it = totalizer_cache_.find(violated);
  if (it == totalizer_cache_.end()) {
    totalizers_.emplace_back(sat_, violated, /*initial_bound=*/2);
    it = totalizer_cache_.emplace(violated, totalizers_.size() - 1).first;
  }
  Totalizer& tot = totalizers_[it->second];
  // Register (or re-register; idempotent) what the bound-2 output means.
  output_info_.emplace(~tot.at_least(2), OutputInfo{it->second, 2});
  return tot;
}

MaxSatResult IncrementalOll::solve(std::span<const Lit> context,
                                   util::CancelTokenPtr cancel) {
  sat_.set_cancel_token(cancel);
  const sat::SolverStats snap = sat_.stats();
  MaxSatResult res;
  if (dead_) {
    res.solver_name = "oll-inc";
    res.status = MaxSatStatus::Unsatisfiable;
  } else if (context.empty()) {
    // Context-free solves advance the persistent transformation state:
    // once it converges, re-solves are a single verification SAT call.
    res = run(base_, context, cancel);
    if (res.status == MaxSatStatus::Optimal) base_optimal_ = true;
  } else {
    // Cores discovered under context selectors may depend on them, so the
    // blocked solve works on a copy of the base state.
    State local = base_;
    res = run(local, context, cancel);
  }
  const sat::SolverStats& now = sat_.stats();
  res.decisions = now.decisions - snap.decisions;
  res.propagations = now.propagations - snap.propagations;
  res.conflicts = now.conflicts - snap.conflicts;
  return res;
}

MaxSatResult IncrementalOll::run(State& st, std::span<const Lit> context,
                                 const util::CancelTokenPtr& cancel) {
  util::Timer timer;
  MaxSatResult res;
  res.solver_name = "oll-inc";
  std::uint64_t iterations = 0;

  while (true) {
    if (cancel && cancel->cancelled()) break;
    if (opts_.max_iterations != 0 && iterations >= opts_.max_iterations) break;
    ++iterations;

    std::span<const Lit> assumptions;
    if (context.empty()) {
      assumptions = st.active.assumptions();
    } else {
      assumption_scratch_.assign(context.begin(), context.end());
      const auto& act = st.active.assumptions();
      assumption_scratch_.insert(assumption_scratch_.end(), act.begin(),
                                 act.end());
      assumptions = assumption_scratch_;
    }

    ++res.sat_calls;
    const sat::SolveResult r = sat_.solve(assumptions);
    if (r == sat::SolveResult::Unknown) break;
    if (r == sat::SolveResult::Sat) {
      if (!st.pending.empty()) {
        activate_stratum(st);
        continue;
      }
      res.status = MaxSatStatus::Optimal;
      res.model.assign(sat_.model().begin(),
                       sat_.model().begin() + inst_->num_vars());
      res.cost = inst_->cost_of(res.model);
      assert(res.cost == st.lower_bound && "OLL invariant: model cost == lb");
      res.lower_bound = st.lower_bound;
      res.seconds = timer.seconds();
      return res;
    }

    if (opts_.core_ceiling != 0 && res.cores >= opts_.core_ceiling) {
      // Weight-fragmentation pathology: give up before transforming yet
      // another near-equal-weight core, and remember the diagnosis so
      // callers stop routing this structure at OLL.
      fragmented_ = true;
      break;
    }

    std::vector<Lit> core = sat_.unsat_core();
    if (core.empty()) {
      // UNSAT regardless of assumptions: the hard clauses themselves.
      dead_ = true;
      res.status = MaxSatStatus::Unsatisfiable;
      res.seconds = timer.seconds();
      return res;
    }
    ++res.cores;

    for (int round = 0; round < 2 && core.size() > 1; ++round) {
      ++res.sat_calls;
      if (sat_.solve(core) != sat::SolveResult::Unsat) break;
      std::vector<Lit> trimmed = sat_.unsat_core();
      if (trimmed.empty() || trimmed.size() >= core.size()) break;
      core = std::move(trimmed);
    }

    // Split the core into soft members and (hard) context selectors.
    std::vector<Lit> soft;
    soft.reserve(core.size());
    for (Lit l : core) {
      if (st.active.contains(l)) soft.push_back(l);
    }
    if (soft.empty()) {
      // The context alone conflicts with the hard clauses: no model with
      // the blocking constraints active.
      res.status = MaxSatStatus::Unsatisfiable;
      res.seconds = timer.seconds();
      return res;
    }

    Weight min_w = st.active.weight(soft.front());
    for (Lit l : soft) min_w = std::min(min_w, st.active.weight(l));
    assert(min_w > 0);
    st.lower_bound += min_w;
    st.active.charge(soft, min_w);

    if (soft.size() > 1) {
      std::vector<Lit> violated;
      violated.reserve(soft.size());
      for (Lit l : soft) violated.push_back(~l);
      std::sort(violated.begin(), violated.end());
      // Re-discovered cores (think: the second solve of a cached
      // structure, or top-k rounds re-finding the unblocked cores) reuse
      // the totalizer built the first time instead of re-encoding it.
      Totalizer& tot = core_totalizer(violated);
      const Lit guard = ~tot.at_least(2);
      st.active.add(guard, min_w);
    }

    for (Lit l : soft) {
      const auto info_it = output_info_.find(l);
      if (info_it == output_info_.end()) continue;
      const OutputInfo info = info_it->second;
      Totalizer& tot = totalizers_[info.totalizer];
      const std::uint32_t next = info.bound + 1;
      if (next <= tot.size()) {
        tot.ensure_bound(sat_, next);
        const Lit guard = ~tot.at_least(next);
        st.active.add(guard, min_w);
        output_info_.emplace(guard, OutputInfo{info.totalizer, next});
      }
    }
  }

  res.status = MaxSatStatus::Unknown;
  // Every core charged so far is certified even though the search did not
  // finish: st.lower_bound is a sound bound on the optimum under this
  // context, and callers use it for anytime optimality-gap reporting.
  res.lower_bound = st.lower_bound;
  res.seconds = timer.seconds();
  return res;
}

// ------------------------------------------------------ IncrementalLsu --

IncrementalLsu::IncrementalLsu(std::shared_ptr<const WcnfInstance> instance,
                               LsuOptions opts)
    : inst_(std::move(instance)), opts_(opts), sat_(opts.sat) {
  sat_.ensure_vars(inst_->num_vars());
  for (logic::Var v = 0; v < inst_->num_vars(); ++v) sat_.set_frozen(v, true);
  for (const auto& c : inst_->hard()) {
    if (!sat_.add_clause(c)) {
      dead_ = true;
      return;
    }
  }
  indicators_.reserve(inst_->soft().size());
  for (const auto& s : inst_->soft()) {
    if (s.lits.size() == 1) {
      indicators_.emplace_back(~s.lits[0], s.weight);
    } else {
      const Lit v = Lit::pos(sat_.new_var());
      sat_.set_frozen(v.var(), true);
      logic::Clause c = s.lits;
      c.push_back(v);
      sat_.add_clause(c);
      indicators_.emplace_back(v, s.weight);
    }
  }
}

MaxSatResult IncrementalLsu::solve(std::span<const Lit> context,
                                   util::CancelTokenPtr cancel) {
  const sat::SolverStats snap = sat_.stats();
  MaxSatResult res = solve_impl(context, cancel);
  const sat::SolverStats& now = sat_.stats();
  res.decisions = now.decisions - snap.decisions;
  res.propagations = now.propagations - snap.propagations;
  res.conflicts = now.conflicts - snap.conflicts;
  return res;
}

MaxSatResult IncrementalLsu::solve_impl(std::span<const Lit> context,
                                        const util::CancelTokenPtr& cancel) {
  util::Timer timer;
  MaxSatResult res;
  res.solver_name = "lsu-inc";
  if (dead_) {
    res.status = MaxSatStatus::Unsatisfiable;
    res.seconds = timer.seconds();
    return res;
  }
  sat_.set_cancel_token(cancel);
  const bool ctx = !context.empty();
  std::vector<Lit> assumptions(context.begin(), context.end());

  if (!ctx && base_proved_) {
    // The optimum is already proven for this instance; one SAT call under
    // the retractable bound re-derives a witness model.
    if (base_cost_ == 0) {
      for (const auto& [l, w] : indicators_) assumptions.push_back(~l);
    } else if (gte_) {
      const Lit b = gte_->upper_bound_assumption(base_cost_);
      if (b != logic::kNoLit) assumptions.push_back(b);
    }
    ++res.sat_calls;
    const sat::SolveResult r = sat_.solve(assumptions);
    if (r == sat::SolveResult::Sat) {
      res.status = MaxSatStatus::Optimal;
      res.model.assign(sat_.model().begin(),
                       sat_.model().begin() + inst_->num_vars());
      res.cost = inst_->cost_of(res.model);
      assert(res.cost == base_cost_);
      res.lower_bound = res.cost;
      res.seconds = timer.seconds();
      return res;
    }
    assert(r != sat::SolveResult::Unsat && "proven-SAT bound became UNSAT");
    res.status = MaxSatStatus::Unknown;
    res.seconds = timer.seconds();
    return res;
  }

  const std::size_t context_prefix = assumptions.size();
  std::uint64_t iterations = 0;
  [[maybe_unused]] bool have_bound = false;

  while (true) {
    if (cancel && cancel->cancelled()) break;
    if (opts_.max_iterations != 0 && iterations >= opts_.max_iterations) break;
    ++iterations;

    ++res.sat_calls;
    const sat::SolveResult r = sat_.solve(assumptions);
    if (r == sat::SolveResult::Unknown) break;
    if (r == sat::SolveResult::Unsat) {
      if (res.has_model()) {
        // The incumbent could not be improved: optimal (for this context).
        res.status = MaxSatStatus::Optimal;
        res.lower_bound = res.cost;
        if (!ctx) {
          base_proved_ = true;
          base_cost_ = res.cost;
        }
      } else {
        assert(!have_bound);
        res.status = MaxSatStatus::Unsatisfiable;
        if (!ctx) dead_ = true;
      }
      res.seconds = timer.seconds();
      return res;
    }

    std::vector<bool> model(sat_.model().begin(),
                            sat_.model().begin() + inst_->num_vars());
    const Weight cost = inst_->cost_of(model);
    if (!res.has_model() || cost < res.cost) {
      res.cost = cost;
      res.model = std::move(model);
    }
    if (res.cost == 0) {
      res.status = MaxSatStatus::Optimal;
      if (!ctx) {
        base_proved_ = true;
        base_cost_ = 0;
      }
      res.seconds = timer.seconds();
      return res;
    }

    if (!gte_ && !gte_failed_) {
      constexpr std::uint32_t kMaxBuildAttempts = 2;
      ++gte_build_attempts_;
      gte_ = GeneralizedTotalizer::build(sat_, indicators_,
                                         opts_.max_encoding_outputs,
                                         opts_.max_encoding_clauses,
                                         cancel.get());
      if (gte_) {
        // The order chain makes upper bounds a single assumption literal
        // (retractable) instead of destructive unit clauses.
        gte_->add_order_chain(sat_);
      } else if (cancel && cancel->cancelled() &&
                 gte_build_attempts_ < kMaxBuildAttempts) {
        break;  // cancelled mid-build: one retry on a later solve
      } else {
        // Budget exceeded — or repeatedly cancelled: every abandoned
        // build leaves dead clauses in the persistent solver, so stop
        // racing this engine rather than leak a copy per solve.
        gte_failed_ = true;
      }
    }
    if (gte_failed_ || !gte_) break;  // Unknown, with the incumbent model.

    const Lit bound = gte_->upper_bound_assumption(res.cost - 1);
    // The incumbent's own cost is an attainable sum > cost - 1, so an
    // output above the bound always exists.
    assert(bound != logic::kNoLit);
    if (bound == logic::kNoLit) break;
    assumptions.resize(context_prefix);
    assumptions.push_back(bound);
    have_bound = true;
  }

  res.status = MaxSatStatus::Unknown;
  res.seconds = timer.seconds();
  return res;
}

// ---------------------------------------------- IncrementalSolveSession --

IncrementalSolveSession::IncrementalSolveSession(
    std::shared_ptr<const WcnfInstance> instance, IncrementalOptions opts)
    : inst_(std::move(instance)), opts_(opts) {
  assert(inst_ != nullptr);
}

IncrementalSolveSession::Guard IncrementalSolveSession::try_acquire() {
  std::unique_lock<std::mutex> lock(mutex_, std::try_to_lock);
  if (!lock.owns_lock()) {
    fallbacks_.fetch_add(1, std::memory_order_relaxed);
    return Guard();
  }
  Guard guard;
  guard.session_ = this;
  guard.lock_ = std::move(lock);
  return guard;
}

bool IncrementalSolveSession::rebase(
    std::shared_ptr<const WcnfInstance> instance) {
  // "error" action refuses the rebase (the caller falls back to a cold
  // re-prepare — the same path as an incompatible delta); "throw" models
  // a failure mid-rebase.
  if (FTA_FAILPOINT_BRANCH("session.rebase")) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  if (in_context_) return false;
  inst_ = std::move(instance);
  // The LSU counting network bakes weights into its encoding; drop it and
  // let the next solve rebuild it (and re-judge its budget) lazily.
  lsu_.reset();
  lsu_failed_.store(false);
  if (oll_) {
    const std::uint64_t patched_before = oll_->patched_rebases();
    if (!oll_->rebase(inst_)) {
      oll_.reset();
    } else if (oll_->patched_rebases() != patched_before) {
      patched_rebases_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  rebases_.fetch_add(1, std::memory_order_relaxed);
  maybe_shed_memory();
  return true;
}

SessionStats IncrementalSolveSession::stats() const {
  SessionStats s;
  s.solves = solves_.load(std::memory_order_relaxed);
  s.oll_solves = oll_solves_.load(std::memory_order_relaxed);
  s.lsu_solves = lsu_solves_.load(std::memory_order_relaxed);
  s.contexts = contexts_.load(std::memory_order_relaxed);
  s.resets = resets_.load(std::memory_order_relaxed);
  s.rebases = rebases_.load(std::memory_order_relaxed);
  s.patched_rebases = patched_rebases_.load(std::memory_order_relaxed);
  s.fallbacks = fallbacks_.load(std::memory_order_relaxed);
  return s;
}

std::size_t IncrementalSolveSession::memory_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t bytes = 0;
  if (oll_) bytes += oll_->memory_bytes();
  if (lsu_) bytes += lsu_->memory_bytes();
  return bytes;
}

IncrementalOll& IncrementalSolveSession::oll_engine() {
  if (!oll_) oll_ = std::make_unique<IncrementalOll>(inst_, opts_.oll);
  return *oll_;
}

IncrementalLsu& IncrementalSolveSession::lsu_engine() {
  if (!lsu_) lsu_ = std::make_unique<IncrementalLsu>(inst_, opts_.lsu);
  return *lsu_;
}

void IncrementalSolveSession::sync_context(sat::Solver& solver,
                                           logic::Lit& selector) {
  if (!in_context_ || selector != logic::kNoLit) return;
  selector = solver.new_selector();
  for (const auto& clause : context_clauses_) {
    solver.add_retractable_clause(clause, selector);
  }
}

void IncrementalSolveSession::maybe_shed_memory() {
  if (in_context_) return;  // retractable clauses would be lost
  std::size_t bytes = 0;
  if (oll_) bytes += oll_->memory_bytes();
  if (lsu_) bytes += lsu_->memory_bytes();
  if (bytes <= opts_.memory_cap_bytes) {
    memory_estimate_.store(bytes, std::memory_order_relaxed);
    return;
  }
  if (lsu_ && lsu_->encoding_failed()) lsu_failed_.store(true);
  oll_.reset();
  lsu_.reset();
  memory_estimate_.store(0, std::memory_order_relaxed);
  resets_.fetch_add(1, std::memory_order_relaxed);
}

void IncrementalSolveSession::Guard::release() {
  if (!session_) return;
  if (session_->in_context_) end_context();
  session_->maybe_shed_memory();
  session_ = nullptr;
  if (lock_.owns_lock()) lock_.unlock();
}

const WcnfInstance& IncrementalSolveSession::Guard::instance() const {
  assert(session_);
  return session_->instance();
}

MaxSatResult IncrementalSolveSession::Guard::solve_oll(
    util::CancelTokenPtr cancel) {
  assert(session_);
  IncrementalOll& engine = session_->oll_engine();
  std::vector<Lit> context;
  if (session_->in_context_) {
    session_->sync_context(engine.sat(), session_->oll_selector_);
    context.push_back(session_->oll_selector_);
  }
  MaxSatResult res = engine.solve(context, std::move(cancel));
  session_->solves_.fetch_add(1, std::memory_order_relaxed);
  session_->oll_solves_.fetch_add(1, std::memory_order_relaxed);
  return res;
}

MaxSatResult IncrementalSolveSession::Guard::solve_lsu(
    util::CancelTokenPtr cancel) {
  assert(session_);
  IncrementalLsu& engine = session_->lsu_engine();
  std::vector<Lit> context;
  if (session_->in_context_) {
    session_->sync_context(engine.sat(), session_->lsu_selector_);
    context.push_back(session_->lsu_selector_);
  }
  MaxSatResult res = engine.solve(context, std::move(cancel));
  if (engine.encoding_failed()) session_->lsu_failed_.store(true);
  session_->solves_.fetch_add(1, std::memory_order_relaxed);
  session_->lsu_solves_.fetch_add(1, std::memory_order_relaxed);
  return res;
}

bool IncrementalSolveSession::Guard::lsu_useful() const {
  assert(session_);
  if (!session_->opts_.enable_lsu) return false;
  if (session_->lsu_failed_.load()) return false;
  return !(session_->lsu_ && session_->lsu_->encoding_failed());
}

bool IncrementalSolveSession::Guard::oll_fragmented() const {
  assert(session_);
  return session_->oll_ && session_->oll_->fragmented();
}

void IncrementalSolveSession::Guard::begin_context() {
  assert(session_ && !session_->in_context_);
  session_->in_context_ = true;
  session_->context_clauses_.clear();
  session_->oll_selector_ = logic::kNoLit;
  session_->lsu_selector_ = logic::kNoLit;
}

void IncrementalSolveSession::Guard::add_blocking_clause(
    const logic::Clause& clause) {
  assert(session_ && session_->in_context_);
  auto* s = session_;
  s->context_clauses_.push_back(clause);
  if (s->oll_ && s->oll_selector_ != logic::kNoLit) {
    s->oll_->sat().add_retractable_clause(clause, s->oll_selector_);
  }
  if (s->lsu_ && s->lsu_selector_ != logic::kNoLit) {
    s->lsu_->sat().add_retractable_clause(clause, s->lsu_selector_);
  }
}

void IncrementalSolveSession::Guard::end_context() {
  assert(session_);
  auto* s = session_;
  if (!s->in_context_) return;
  if (s->oll_ && s->oll_selector_ != logic::kNoLit) {
    s->oll_->sat().retire_selector(s->oll_selector_);
  }
  if (s->lsu_ && s->lsu_selector_ != logic::kNoLit) {
    s->lsu_->sat().retire_selector(s->lsu_selector_);
  }
  s->oll_selector_ = logic::kNoLit;
  s->lsu_selector_ = logic::kNoLit;
  s->context_clauses_.clear();
  s->in_context_ = false;
  s->contexts_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace fta::maxsat
