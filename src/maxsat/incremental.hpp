// Incremental MaxSAT: persistent SAT sessions across OLL iterations,
// top-k rounds and cached re-solves.
//
// The PR 2 ablation showed that on ~1500-event DAGs the dominant cost is
// no longer formula size but the per-solve floor: every solve_prepared
// call rebuilt the SAT solver, re-added ~10k clauses and re-discovered
// ~75 cores from scratch. This layer keeps one solver alive per prepared
// structure instead:
//
//   * IncrementalOll — OLL whose SAT solver, learnt clauses, totalizer
//     structures and core-transformation state (remaining soft weights +
//     lower bound) persist across solve() calls. A context-free re-solve
//     resumes from the fully transformed state, so a previously solved
//     instance is re-proven optimal in a single SAT call; re-discovered
//     cores reuse their totalizer encodings via a structural cache.
//   * IncrementalLsu — solution-improving search whose generalized
//     totalizer is built once and bounded through *assumptions* over an
//     order chain (see GeneralizedTotalizer::add_order_chain) instead of
//     destructive unit clauses, so the solver survives optimality proofs.
//   * IncrementalSolveSession — owns both engines plus an activation-
//     literal context layer for retractable constraints: top-k
//     superset-blocking rounds push guarded clauses and retire the guard
//     when enumeration ends, leaving the session clean for the next
//     request. Sessions are single-owner at a time (try_acquire); callers
//     that lose the race fall back to stateless solvers.
//
// The stateless OllSolver and LsuSolver are these engines solved once and
// discarded, so each algorithm has one implementation.
//
// Soundness notes. Everything the engines add to their solvers is either
// definitional over fresh variables (totalizer outputs, soft relaxers,
// order chains) or guarded by an activation selector, so the clause
// database stays a conservative extension of the hard clauses and can be
// reused indefinitely. OLL cores discovered while *context* selectors
// were assumed may depend on them; such cores only ever update a
// per-context copy of the solve state, never the persistent base state.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "maxsat/assumption_buffer.hpp"
#include "maxsat/lsu.hpp"
#include "maxsat/oll.hpp"
#include "maxsat/solver.hpp"
#include "maxsat/totalizer.hpp"
#include "sat/solver.hpp"
#include "util/cancel.hpp"

namespace fta::maxsat {

/// Core-guided OLL over a persistent SAT solver. Not thread-safe; the
/// owning session serialises access.
class IncrementalOll {
 public:
  IncrementalOll(std::shared_ptr<const WcnfInstance> instance,
                 OllOptions opts);

  /// Solves the instance under `context` (activation selectors to assume,
  /// possibly empty). Context-free calls advance the persistent base
  /// state; context calls work on a copy of it.
  MaxSatResult solve(std::span<const logic::Lit> context,
                     util::CancelTokenPtr cancel);

  /// Re-targets the engine at an instance with identical hard clauses and
  /// cardinality blocks but different soft weights (a weight-only tree
  /// delta). The SAT solver — learnt clauses and every totalizer already
  /// encoded — survives. When every changed soft can absorb its delta in
  /// the residual it still carries, the core-transformation state is
  /// *patched in place* (lower bound, totalizer guards and charge history
  /// all survive; see rebase's soundness note), so the next solve resumes
  /// from the transformed state instead of re-discovering every core.
  /// Otherwise the transformation state alone is rebuilt (the pre-patch
  /// behaviour). Returns false when the new softs are not all unit
  /// (relaxer wiring cannot be re-linked); the caller should rebuild the
  /// engine instead.
  bool rebase(std::shared_ptr<const WcnfInstance> instance);

  /// Rebases that took the in-place patch path (kept the charge history).
  std::uint64_t patched_rebases() const noexcept { return patched_rebases_; }

  /// Hard clauses were refuted at level 0 (construction or later).
  bool hard_unsat() const noexcept { return dead_; }

  /// The persistent base state reached its SAT fixpoint: a context-free
  /// re-solve is a single (cheap) verification SAT call.
  bool base_converged() const noexcept { return base_optimal_; }

  /// A solve hit kOllCoreCeiling: the instance fragments its
  /// optimum across too many cores for core-guided search to pay off.
  /// Sticky — callers should route this structure to LSU instead.
  bool fragmented() const noexcept { return fragmented_; }

  sat::Solver& sat() noexcept { return sat_; }
  std::size_t memory_bytes() const noexcept { return sat_.memory_bytes(); }

 private:
  struct State {
    AssumptionBuffer active;
    std::vector<std::pair<logic::Lit, Weight>> pending;  ///< Strata.
    Weight lower_bound = 0;
  };
  struct OutputInfo {
    std::size_t totalizer;
    std::uint32_t bound;
  };

  MaxSatResult run(State& st, std::span<const logic::Lit> context,
                   const util::CancelTokenPtr& cancel);
  bool activate_stratum(State& st);
  /// Installs the instance's forced cardinality blocks (totalizer-lowered
  /// vote gates whose count bound holds unconditionally) as pre-built
  /// core structures: the mandatory k*w_min cost is charged upfront and
  /// the lowering's counting outputs become the block's soft guards, so
  /// the cores OLL would discover one SAT call at a time are already
  /// transformed — over the very variables the instance encoding uses.
  void apply_card_blocks(std::unordered_map<logic::Lit, Weight>& merged);
  /// Totalizer over `violated` (sorted), reusing a structurally identical
  /// one from an earlier round/solve when possible.
  Totalizer& core_totalizer(const std::vector<logic::Lit>& violated);

  std::shared_ptr<const WcnfInstance> inst_;
  OllOptions opts_;
  sat::Solver sat_;
  State base_;
  bool base_optimal_ = false;  ///< base_ has reached its SAT fixpoint.
  bool dead_ = false;
  bool fragmented_ = false;  ///< Hit the core ceiling (sticky).

  std::deque<Totalizer> totalizers_;
  std::map<std::vector<logic::Lit>, std::size_t> totalizer_cache_;
  std::unordered_map<logic::Lit, OutputInfo> output_info_;
  std::vector<logic::Lit> assumption_scratch_;
  /// Each original soft assumption's *full* weight under the current
  /// instance (captured before card-block charging). The rebase patch
  /// derives charged(l) = orig_weight_[l] - active residual from it.
  std::unordered_map<logic::Lit, Weight> orig_weight_;
  std::uint64_t patched_rebases_ = 0;
};

/// Solution-improving LSU over a persistent SAT solver with a retractable
/// (assumption-based) upper bound. Not thread-safe.
class IncrementalLsu {
 public:
  IncrementalLsu(std::shared_ptr<const WcnfInstance> instance,
                 LsuOptions opts);

  MaxSatResult solve(std::span<const logic::Lit> context,
                     util::CancelTokenPtr cancel);

  bool hard_unsat() const noexcept { return dead_; }
  /// The weighted counting encoding blew its budget: every further solve
  /// would return Unknown, so racing this engine is pointless.
  bool encoding_failed() const noexcept { return gte_failed_; }

  sat::Solver& sat() noexcept { return sat_; }
  std::size_t memory_bytes() const noexcept { return sat_.memory_bytes(); }

 private:
  MaxSatResult solve_impl(std::span<const logic::Lit> context,
                          const util::CancelTokenPtr& cancel);

  std::shared_ptr<const WcnfInstance> inst_;
  sat::Solver sat_;
  std::vector<std::pair<logic::Lit, Weight>> indicators_;
  std::optional<GeneralizedTotalizer> gte_;
  /// A build abandoned mid-way (budget or cancellation) leaves its
  /// partial encoding in the persistent solver — bounded retries keep a
  /// race-cancelled engine from leaking one partial copy per solve.
  std::uint32_t gte_build_attempts_ = 0;
  bool gte_failed_ = false;
  bool dead_ = false;
  bool base_proved_ = false;  ///< Context-free optimum proven.
  Weight base_cost_ = 0;
};

struct IncrementalOptions {
  OllOptions oll;  ///< Deterministic defaults; the session's primary engine.
  LsuOptions lsu;
  /// Approximate per-session memory cap. When a solve (outside any
  /// context) leaves the engines above this, they are discarded and
  /// lazily rebuilt — learnt clauses and totalizers are a cache, not
  /// state the correctness depends on.
  std::size_t memory_cap_bytes = std::size_t{256} << 20;
};

struct SessionStats {
  std::uint64_t solves = 0;       ///< Engine solve() calls, total.
  std::uint64_t resets = 0;       ///< Memory-cap engine rebuilds.
};

/// The per-prepared-instance persistent solving state. Owned by
/// core::PreparedInstance (and therefore by the engine's structural
/// cache); thread-safe through single-owner guards.
class IncrementalSolveSession {
 public:
  explicit IncrementalSolveSession(
      std::shared_ptr<const WcnfInstance> instance,
      IncrementalOptions opts = {});

  /// Exclusive access to the session for one solve or one blocking-clause
  /// enumeration. The guard auto-ends any open context and re-checks the
  /// memory cap on destruction. During a portfolio race the OLL and LSU
  /// engines may be driven from two different threads under one guard —
  /// they share no mutable state.
  class Guard {
   public:
    Guard() = default;
    Guard(Guard&& other) noexcept
        : session_(other.session_), lock_(std::move(other.lock_)) {
      other.session_ = nullptr;
    }
    Guard& operator=(Guard&& other) noexcept {
      if (this != &other) {
        release();
        session_ = other.session_;
        lock_ = std::move(other.lock_);
        other.session_ = nullptr;
      }
      return *this;
    }
    ~Guard() { release(); }

    explicit operator bool() const noexcept { return session_ != nullptr; }

    MaxSatResult solve_oll(util::CancelTokenPtr cancel = nullptr);
    MaxSatResult solve_lsu(util::CancelTokenPtr cancel = nullptr);
    /// False once the LSU counting encoding failed its budget (racing the
    /// LSU engine would only burn a thread).
    bool lsu_useful() const;
    /// True once the OLL engine latched as weight-fragmented (hit its
    /// core ceiling); the pipeline diverts Oll-choice solves to LSU.
    bool oll_fragmented() const;

    /// Opens a blocking context: subsequent add_blocking_clause calls are
    /// guarded by a fresh activation selector per engine.
    void begin_context();
    /// Adds a hard clause that binds only within the current context.
    void add_blocking_clause(const logic::Clause& clause);
    /// Retires the context's selectors; guarded clauses are permanently
    /// deactivated and garbage-collected.
    void end_context();

    const WcnfInstance& instance() const;

   private:
    friend class IncrementalSolveSession;
    void release();
    IncrementalSolveSession* session_ = nullptr;
    std::unique_lock<std::mutex> lock_;
  };

  /// Non-blocking: an empty guard when another request owns the session
  /// (callers fall back to stateless solving).
  Guard try_acquire();

  /// Swaps the session onto a reweighted copy of its instance (identical
  /// hard clauses, new soft weights). Blocks until any in-flight solve
  /// releases the session. The OLL engine keeps its SAT solver, learnt
  /// clauses and totalizer encodings (IncrementalOll::rebase); the LSU
  /// engine is discarded — its weighted counting network bakes the old
  /// weights in — and lazily rebuilt on next use. Returns false only if
  /// called while a blocking context is open (a caller bug).
  bool rebase(std::shared_ptr<const WcnfInstance> instance);

  const WcnfInstance& instance() const noexcept { return *inst_; }
  SessionStats stats() const;
  /// Engines' approximate footprint. Acquires the session lock.
  std::size_t memory_bytes() const;
  /// Footprint as of the last guard release — lock-free, so pool-level
  /// eviction (engine::TreeCache::shed_sessions) can size sessions while
  /// a solve holds the session lock, where memory_bytes() would block.
  std::size_t memory_bytes_estimate() const noexcept {
    return memory_estimate_.load(std::memory_order_relaxed);
  }

 private:
  friend class Guard;

  IncrementalOll& oll_engine();
  IncrementalLsu& lsu_engine();
  /// Mints the context selector for one engine and replays the context's
  /// blocking clauses into it (used when an engine joins late).
  void sync_context(sat::Solver& solver, logic::Lit& selector);
  void maybe_shed_memory();

  std::shared_ptr<const WcnfInstance> inst_;
  IncrementalOptions opts_;
  mutable std::mutex mutex_;

  std::unique_ptr<IncrementalOll> oll_;
  std::unique_ptr<IncrementalLsu> lsu_;
  std::atomic<bool> lsu_failed_{false};  ///< Sticky across engine rebuilds.

  bool in_context_ = false;
  logic::Lit oll_selector_ = logic::kNoLit;
  logic::Lit lsu_selector_ = logic::kNoLit;
  std::vector<logic::Clause> context_clauses_;

  std::atomic<std::size_t> memory_estimate_{0};

  std::atomic<std::uint64_t> solves_{0};
  std::atomic<std::uint64_t> resets_{0};
};

using IncrementalSessionPtr = std::shared_ptr<IncrementalSolveSession>;

/// Adapts a session engine to the MaxSatSolver interface so it can race
/// as a portfolio member. The callable must stay valid for the duration
/// of the portfolio solve (the pipeline holds the session guard on its
/// stack across the race).
class SessionMemberSolver final : public MaxSatSolver {
 public:
  using SolveFn = std::function<MaxSatResult(util::CancelTokenPtr)>;
  SessionMemberSolver(std::string name, SolveFn fn)
      : name_(std::move(name)), fn_(std::move(fn)) {}

  MaxSatResult solve(const WcnfInstance& /*instance*/,
                     util::CancelTokenPtr cancel = nullptr) override {
    return fn_(std::move(cancel));
  }
  std::string name() const override { return name_; }

 private:
  std::string name_;
  SolveFn fn_;
};

}  // namespace fta::maxsat
