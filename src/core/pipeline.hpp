// The paper's contribution: computing the Maximum Probability Minimal Cut
// Set (MPMCS) of a fault tree by reduction to Weighted Partial MaxSAT.
//
// The six steps of Barrère & Hankin (DSN 2020):
//   1. Logical transformation — success tree X(t) = ¬f(t); gate-flipped
//      form Y(t) with positive events (see FormulaStore::dualize). Solving
//      "minimise satisfied events subject to f(t)" is implemented as hard
//      clauses asserting f(t) plus unit soft clauses preferring each event
//      absent — the exact dual of maximising satisfied y_i in ¬Y(t).
//   2. CNF conversion — Tseitin transformation (logic/tseitin).
//   3. Probability transformation — w_i = -log p(x_i), scaled to integers.
//   4. Weighted Partial MaxSAT instance — hard tree CNF + soft (¬x_i, w_i).
//      Step 3.5 (extension): the WCNF preprocessor (src/preprocess)
//      simplifies the hard clauses — unit propagation, subsumption,
//      self-subsuming resolution, equivalent-literal substitution and
//      bounded variable elimination over the Tseitin auxiliaries — with
//      basic-event/soft variables frozen and a ModelReconstructor mapping
//      solver models back to the original variable space.
//   5. Parallel MaxSAT resolution — the solver portfolio (maxsat/portfolio)
//      on one flat instance per artefact: the Step 3.5 one when
//      preprocessing ran, else the raw one. By default the module pass
//      (maxsat/stratified) answers the tree's closed-form part without
//      search, and each module that needs search is solved by the
//      incremental OLL alone, with the portfolio racing only when the lead
//      has no answer within its budget.
//   6. Reverse transformation — P = exp(-Σ w_i) over the chosen events
//      (recomputed exactly from the tree's probabilities).
//
// Extensions beyond the paper: voting-gate support end-to-end, a
// minimality shrink pass (required when events have p = 1, i.e. zero
// weight), and top-k MPMCS enumeration via superset-blocking clauses.
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ft/cut_set.hpp"
#include "ft/fault_tree.hpp"
#include "ft/json_writer.hpp"
#include "ft/tree_delta.hpp"
#include "logic/tseitin.hpp"
#include "maxsat/incremental.hpp"
#include "maxsat/instance.hpp"
#include "maxsat/solver.hpp"
#include "maxsat/stratified.hpp"
#include "preprocess/preprocess.hpp"
#include "util/cancel.hpp"

namespace fta::core {

enum class SolverChoice {
  /// The default. The module pass (maxsat/stratified) answers the tree's
  /// closed-form gates from their children without search; each frontier
  /// module — all of the tree when its top gate is one — runs Step 5
  /// hedged by escalation: the incremental OLL on the module artefact's
  /// session (with its fragmentation divert to LSU) answers alone, and
  /// only when it has no answer within a short budget do the Portfolio
  /// members start racing it.
  Auto,
  Portfolio,   ///< Step 5 as published: parallel race, first finisher wins.
  Oll,
  FuMalik,
  Lsu,
  BruteForce,  ///< Exhaustive; tiny trees only (tests, sanity checks).
  /// The name of the module pass before it became Auto's; kept so that
  /// callers and journals that name it keep working.
  Stratified = Auto,
};

const char* solver_choice_name(SolverChoice c) noexcept;

/// The CLI's and the service's --solver vocabulary: auto, portfolio, oll,
/// fu-malik, lsu, brute (or brute-force) and stratified (an alias of
/// auto). Returns false, leaving `out` untouched, for any other name.
bool parse_solver_choice(std::string_view name, SolverChoice* out) noexcept;

struct PipelineOptions {
  SolverChoice solver = SolverChoice::Auto;
  /// Integer scaling factor applied to -log p weights (Step 3). Larger
  /// preserves more probability resolution; see bench/ablation_weight_scaling.
  double weight_scale = 1e6;
  /// Wall-clock cap on each Step 5, whatever the choice: a single
  /// engine's solve, the lead and the race together, or the module pass
  /// with every frontier module it solves (0 = none).
  double timeout_seconds = 0.0;
  /// Drop gratuitous members from the returned cut (only relevant when
  /// events with probability ~1 make zero-weight softs).
  bool shrink_to_minimal = true;
  /// Step 2 vote-gate lowering: `Expand` rewrites k-of-n gates to the
  /// recursive AND/OR network, `Totalizer` encodes them as shared
  /// counting networks (logic/cardinality), `Auto` (default) picks the
  /// totalizer once n*k reaches `card_totalizer_threshold`. Totalizer
  /// blocks report their auxiliaries, so Step 3.5 freezes the counting
  /// structure by construction and the incremental OLL engine reuses it
  /// as a pre-built core structure. The CLI exposes --card-lowering.
  logic::CardinalityLowering card_lowering = logic::CardinalityLowering::Auto;
  /// Auto threshold on n*k; 10 makes every wide vote (n >= 5)
  /// cardinality-native.
  std::uint32_t card_totalizer_threshold = 10;
  /// Step 3.5: simplify the WCNF before solving (src/preprocess). Exact —
  /// every solver sees an equivalent instance and models are mapped back
  /// to the original variable space. The CLI exposes --no-preprocess.
  bool preprocess = true;
  /// Technique/effort knobs for Step 3.5 (ignored when !preprocess).
  preprocess::PreprocessOptions preprocess_opts;
  /// Keep a persistent incremental SAT session per prepared instance
  /// (maxsat/incremental): the OLL/LSU solver state — learnt clauses,
  /// totalizers, core transformations — survives successive
  /// solve_prepared calls on the same cached structure, and top-k rounds
  /// become retractable (activation-literal-guarded) blocking clauses on
  /// the live solver instead of fresh solves. Exact; the CLI exposes
  /// --no-incremental as the escape hatch.
  bool incremental = true;
  /// Per-session memory cap: above it the session's engines are dropped
  /// and lazily rebuilt (their state is a cache, not required for
  /// correctness).
  std::size_t incremental_memory_cap_bytes = std::size_t{256} << 20;
};

struct MpmcsSolution {
  maxsat::MaxSatStatus status = maxsat::MaxSatStatus::Unknown;
  ft::CutSet cut;            ///< The MPMCS (valid when status == Optimal).
  double probability = 0.0;  ///< Joint probability of the cut (Step 6).
  double log_cost = 0.0;     ///< Σ -ln p over the cut.
  std::string solver_name;   ///< Which solver/portfolio member produced it.
  double solve_seconds = 0.0;   ///< MaxSAT solving time.
  double total_seconds = 0.0;   ///< Including transformation steps.
  maxsat::Weight scaled_cost = 0;  ///< Optimal cost in scaled-integer space.
  std::size_t cnf_vars = 0;     ///< Vars of the instance handed to Step 5.
  std::size_t cnf_clauses = 0;  ///< Hard clauses handed to Step 5.
  /// Step 3.5 cost paid by this call: 0 when preprocessing is off and
  /// when the artefact was prepared by an earlier call.
  double preprocess_seconds = 0.0;
  /// Variables removed by Step 3.5 (fixed + substituted + eliminated).
  std::size_t preprocess_removed_vars = 0;
  /// Which instance produced the answer: "pre" (the Step 3.5 simplified
  /// one), "raw" (the Step 1-4 one, solved when preprocessing is off), or
  /// "strata" (composed by the module pass; solver_name "stratified").
  std::string lineage;
  /// Anytime answer: `status` is Unknown (budget/deadline expired before
  /// an optimality proof) but `cut` holds the best incumbent found — a
  /// valid (minimal if shrinking) cut set whose cost may exceed the
  /// optimum. The fields below bound how far off it can be.
  bool approximate = false;
  /// Certified lower bound on the *optimal* scaled-integer cost, in the
  /// same space as `scaled_cost` (Step 3.5 offset included). Invariant:
  /// scaled_lower_bound <= optimal scaled cost <= scaled_cost.
  maxsat::Weight scaled_lower_bound = 0;
  /// exp(-scaled_lower_bound / weight_scale): no cut set can be more
  /// probable than this (advisory — inherits the llround quantisation of
  /// Step 3's weights).
  double probability_upper_bound = 0.0;
  /// (scaled_cost - scaled_lower_bound) / scaled_cost, in [0, 1]; 0 when
  /// the incumbent is provably optimal in scaled space.
  double optimality_gap = 0.0;
  /// SAT effort behind the winning result (the producing member's own
  /// counters: per-solve deltas on session engines, absolutes on
  /// stateless ones).
  std::uint64_t sat_decisions = 0;
  std::uint64_t sat_propagations = 0;
  std::uint64_t sat_conflicts = 0;
};

/// What apply_delta()/derive_prepared() did to the artefact — the lineage
/// record the service reports as `delta_applied` and the mutation bench
/// asserts on.
struct DeltaApplication {
  /// The delta left the tree's structure (hard clauses) intact: softs
  /// were rebuilt in place and sessions rebased — zero re-encoding.
  bool weight_only = false;
  /// Fell back to a full cold prepare (the topology changed too much to
  /// patch).
  bool reprepared = false;
  /// At least one incremental session survived the edit with its SAT
  /// state (learnt clauses, totalizers, cores) intact.
  bool session_rebased = false;
  /// The module pass's frontier modules after the edit, and what became
  /// of each one's artefact (all 0 when the whole tree is one instance).
  std::size_t strata_total = 0;
  std::size_t strata_reused = 0;      ///< Untouched: artefact shared.
  std::size_t strata_reweighted = 0;  ///< Weight-patched artefacts.
  std::size_t strata_reprepared = 0;  ///< Cold re-prepared artefacts.
};

/// A frontier module's proven optimum (see PreparedInstance::optimum).
struct FrontierOptimum {
  std::mutex mutex;
  std::optional<MpmcsSolution> solution;  ///< Optimal and shrunk when set.
};

/// The Step 1-4 artefacts plus the optional Step 3.5 simplification —
/// everything needed to jump straight to Step 5. Built once per tree by
/// prepare() and cached by engine::TreeCache for repeated structures.
struct PreparedInstance {
  maxsat::WcnfInstance raw;  ///< Steps 1-4 (see build_instance).
  /// Step 3.5 artefact; null when PipelineOptions::preprocess is off.
  std::shared_ptr<const preprocess::PreprocessResult> pre;
  /// Persistent incremental solving state over the instance Step 5 will
  /// see (the simplified one when preprocessing ran). Null when
  /// PipelineOptions::incremental is off or the configured solver cannot
  /// use it; shared so cached copies of this artefact share one session.
  maxsat::IncrementalSessionPtr session;
  /// Reusable minimality-shrink context (the tree formula, built once);
  /// null when the shrink pass is disabled.
  std::shared_ptr<const ft::ShrinkContext> shrink;
  /// The module pass (maxsat/stratified), built by prepare() under Auto
  /// when the top gate is closed-form: each frontier module then carries
  /// its own monolithic artefact and the whole-tree fields above stay
  /// empty. Null when the tree's own artefact serves: a monolithic
  /// choice, or a top gate that is itself a frontier module. The engine's
  /// structural key separates the two shapes.
  std::shared_ptr<const maxsat::StratifiedPlan> strata;
  /// Set wherever `raw` is built (null on a module-pass artefact). When
  /// the artefact serves a frontier module, the module pass keeps the
  /// module's optimum here once a solve proved it, so a re-solve after an
  /// edit elsewhere in the tree skips its Step 5. Copies of the artefact
  /// share it; a reweight starts a fresh one.
  std::shared_ptr<FrontierOptimum> optimum;

  /// Footprint of every incremental session the artefact holds (see
  /// IncrementalSolveSession::memory_bytes_estimate), lock-free.
  std::size_t session_bytes_estimate() const noexcept;
  /// Whether the artefact holds an incremental session: its own or a
  /// frontier module's.
  bool has_session() const noexcept;
};

class MpmcsPipeline {
 public:
  explicit MpmcsPipeline(PipelineOptions opts = {});

  /// Computes the MPMCS of a validated fault tree: prepare() followed by
  /// solve_prepared(), so a one-shot solve takes the same Step 5 path as a
  /// cached one. The cancel token, when set, is polled cooperatively by
  /// every solver layer (including the race members and the SAT search
  /// loops); cancellation or an expired token deadline yields status
  /// Unknown.
  MpmcsSolution solve(const ft::FaultTree& tree,
                      util::CancelTokenPtr cancel = nullptr) const;

  /// The k most probable MCSs in descending probability order (fewer if
  /// the tree has fewer MCSs). Each round blocks the previous cut and its
  /// supersets with a hard clause and re-solves. When fewer than k sets
  /// come back, `final_status` (if non-null) tells why enumeration ended:
  /// Unsatisfiable = the tree's MCSs are exhausted, Unknown = cancelled
  /// or budget-limited, Optimal = k sets were found.
  std::vector<MpmcsSolution> top_k(const ft::FaultTree& tree, std::size_t k,
                                   util::CancelTokenPtr cancel = nullptr,
                                   maxsat::MaxSatStatus* final_status =
                                       nullptr) const;

  /// top_k starting from a previously built artefact (see prepare): the
  /// engine's structural cache hits this path, so enumeration shares the
  /// cached instance *and* its warm incremental session instead of
  /// re-running Steps 1-4 per request.
  std::vector<MpmcsSolution> top_k_prepared(
      const ft::FaultTree& tree, const PreparedInstance& prepared,
      std::size_t k, util::CancelTokenPtr cancel = nullptr,
      maxsat::MaxSatStatus* final_status = nullptr) const;

  /// Steps 1-4 plus (when enabled) the Step 3.5 preprocessing pass, as
  /// one reusable artefact. Under Auto the module pass runs first, and
  /// these steps run per frontier module (for the whole tree when its
  /// top gate is one). The engine's structural cache stores these. The
  /// cancel token (when set) bounds the preprocessing phase; an early
  /// stop yields a sound but less simplified artefact.
  PreparedInstance prepare(const ft::FaultTree& tree,
                           util::CancelTokenPtr cancel = nullptr) const;

  /// Like solve(), but starting from a previously built artefact (see
  /// prepare) instead of re-running the transformation steps — the
  /// engine's structural cache hits this path.
  MpmcsSolution solve_prepared(const ft::FaultTree& tree,
                               const PreparedInstance& prepared,
                               util::CancelTokenPtr cancel = nullptr) const;

  /// Convenience overload for a bare Step 1-4 instance: builds a
  /// PreparedInstance from it (Step 3.5 and the session included) and
  /// solves that, so prefer the PreparedInstance form for repeated solves.
  MpmcsSolution solve_prepared(const ft::FaultTree& tree,
                               const maxsat::WcnfInstance& instance,
                               util::CancelTokenPtr cancel = nullptr) const;

  /// Patches `prepared` (built for the tree `delta` was applied to) into
  /// the artefact prepare(new_tree) would build, reusing everything the
  /// edit did not touch. `new_tree` must be apply_delta(old_tree, delta).
  /// Weight-only deltas rebuild the soft clauses in place and *rebase*
  /// the live incremental sessions — the SAT solver state (hard clauses,
  /// learnt clauses, totalizer networks) is weight-independent, so no
  /// re-encoding and no cold prepare happens at all. Structural deltas on
  /// module-pass artefacts re-run the (linear) pass and re-prepare only
  /// the frontier modules that changed, paired by gate; everything else
  /// falls back to a cold prepare. The caller
  /// must own `prepared` exclusively (no cache-shared copies) because
  /// sessions are mutated in place — shared artefacts go through
  /// derive_prepared() instead.
  DeltaApplication apply_delta(const ft::FaultTree& new_tree,
                               const ft::TreeDelta& delta,
                               PreparedInstance& prepared,
                               util::CancelTokenPtr cancel = nullptr) const;

  /// Non-destructive apply_delta: returns a patched *copy* of `base`,
  /// which may be shared (an engine cache entry). Untouched sub-artefacts
  /// and contexts are shared with the base; anything reweighted gets a
  /// fresh session (the base's warm sessions are never mutated).
  PreparedInstance derive_prepared(const ft::FaultTree& new_tree,
                                   const ft::TreeDelta& delta,
                                   const PreparedInstance& base,
                                   DeltaApplication* stats = nullptr,
                                   util::CancelTokenPtr cancel = nullptr) const;

  /// Process-wide count of cold Step 1-4 artefact builds: one per prepare
  /// of a whole tree, and one per frontier module the module pass
  /// prepares (a closed-form tree costs none). The mutation bench and
  /// tests assert on deltas of this counter: a weight-only edit adds 0, a
  /// single-module splice adds exactly that module's prepare.
  static std::uint64_t prepare_calls() noexcept;

  /// Process-wide count of Step 5 solves that started race members: every
  /// Portfolio solve, and each Auto solve whose lead ran out of its
  /// budget with time left.
  static std::uint64_t escalations() noexcept;

  /// Async entry point: solve() on a detached thread, result via future.
  /// The task takes its own copy of the tree and options, so neither the
  /// tree nor this pipeline needs to outlive the call. Batch workloads
  /// should prefer engine::AnalysisEngine, which adds a work-stealing
  /// pool and the structural-hash artefact cache on top.
  std::future<MpmcsSolution> solve_async(
      ft::FaultTree tree, util::CancelTokenPtr cancel = nullptr) const;

  const PipelineOptions& options() const noexcept { return opts_; }

  // --- step artefacts (exposed for tests, benches and documentation) ----

  /// Step 3: the -log(p) weight of every basic event (unscaled).
  static std::vector<double> log_weights(const ft::FaultTree& tree);

  /// Step 1 artefacts: builds f(t) into `store` and returns the paper's
  /// gate-flipped success-tree form Y(t) (events positive, AND<->OR
  /// swapped), with ¬Y(t) ≡ f(t).
  static logic::NodeId success_tree(logic::FormulaStore& store,
                                    const ft::FaultTree& tree);

  /// Steps 1-4: the Weighted Partial MaxSAT instance for the tree.
  /// Variables [0, num_events) are the basic events; the rest are Tseitin
  /// auxiliaries.
  maxsat::WcnfInstance build_instance(const ft::FaultTree& tree) const;

  /// Fig. 2-style JSON document for a solved tree.
  static std::string to_json(const ft::FaultTree& tree,
                             const MpmcsSolution& solution);

 private:
  /// Step 5 + Step 6 on a monolithic `prepared` (see solve_simplified).
  MpmcsSolution solve_artefact(const ft::FaultTree& tree,
                               const PreparedInstance& prepared,
                               util::CancelTokenPtr cancel) const;
  /// Step 5 + Step 6 over `to_solve`. When `pre` is non-null the model
  /// is mapped back through its reconstructor and costs include its
  /// offset (to_solve is then the simplified instance, possibly with
  /// extra hard clauses such as top-k blockers appended). `session`
  /// (when non-null) is an acquired guard on the artefact's incremental
  /// session; `shrink` (when non-null) replaces the per-call
  /// shrink_to_minimal formula rebuild.
  MpmcsSolution solve_simplified(
      const ft::FaultTree& tree, const maxsat::WcnfInstance& to_solve,
      const preprocess::PreprocessResult* pre, util::CancelTokenPtr cancel,
      maxsat::IncrementalSolveSession::Guard* session,
      const ft::ShrinkContext* shrink) const;
  /// Step 5 under `timeout_seconds`. Auto runs the OLL lead alone under
  /// the lead budget and escalates to the race only if it has no answer
  /// with time left; Portfolio races from the start; every other choice
  /// runs its one solver.
  maxsat::MaxSatResult solve_step5(
      maxsat::IncrementalSolveSession::Guard* session,
      const maxsat::WcnfInstance& working, util::CancelTokenPtr cancel) const;
  /// The module pass's solve: each frontier module on its own artefact,
  /// then the closed-form gates composed, all under one time limit.
  MpmcsSolution solve_composed(const ft::FaultTree& tree,
                               const maxsat::StratifiedPlan& plan,
                               util::CancelTokenPtr cancel) const;
  /// The superset-blocking loop of top_k_prepared over one monolithic
  /// artefact, one cut at a time.
  class Enumeration;
  /// The module pass's top-k: k-best lists composed over the frontier
  /// modules' enumerations, each deepened only as far as the lists use.
  std::vector<MpmcsSolution> top_k_composed(
      const ft::FaultTree& tree, const maxsat::StratifiedPlan& plan,
      std::size_t k, util::CancelTokenPtr cancel,
      maxsat::MaxSatStatus* final_status) const;
  /// A cold whole-tree artefact (counted by prepare_calls).
  PreparedInstance prepare_monolithic(const ft::FaultTree& tree,
                                      util::CancelTokenPtr cancel) const;
  /// The whole-tree artefacts (the raw instance `raw`, its Step 3.5
  /// pass, session, shrink context) built into `prepared`, replacing
  /// whatever was there. Shared by prepare_monolithic and the WCNF
  /// overload of solve_prepared.
  void build_monolithic(const ft::FaultTree& tree, maxsat::WcnfInstance raw,
                        PreparedInstance& prepared,
                        util::CancelTokenPtr cancel) const;
  /// apply_delta/derive_prepared implementation; `exclusive` says whether
  /// sessions may be rebased in place (true) or must be replaced by
  /// fresh ones (false — the base is shared with a cache).
  DeltaApplication patch_prepared(const ft::FaultTree& new_tree,
                                  const ft::TreeDelta& delta,
                                  PreparedInstance& prepared, bool exclusive,
                                  util::CancelTokenPtr cancel) const;
  /// Weight-only patch of a monolithic artefact: rebuilds raw/simplified
  /// softs under the new tree's weights and rebases (or replaces) the
  /// session.
  void reweight_prepared(const ft::FaultTree& tree,
                         PreparedInstance& prepared, bool exclusive,
                         DeltaApplication& st) const;
  PipelineOptions opts_;
};

}  // namespace fta::core
