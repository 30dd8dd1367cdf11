// The concurrent batch-analysis engine.
//
// The paper's pipeline analyses one tree at a time; production traffic is
// a stream of analysis requests over many trees (cf. the authors' MaxSAT
// Evaluation 2020 benchmark corpus of fault-tree instances solved in
// bulk). AnalysisEngine executes a batch of heterogeneous requests —
// MPMCS, top-k enumeration, importance measures, quantitative summaries —
// concurrently over a work-stealing thread pool, with
//
//   * structural-hash caching of the Step 1-4 artefacts (engine/tree_cache),
//     so repeated or structurally identical trees skip the transformation
//     steps and go straight to MaxSAT solving, and
//   * cooperative cancellation and per-request timeouts: every request
//     gets a child token of the engine's lifetime token (util/cancel),
//     observed by the MaxSAT portfolio and the SAT search loops.
//
// Requests are independent; results come back as futures (submit) or as a
// completed vector in submission order (run_batch).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "analysis/importance.hpp"
#include "core/pipeline.hpp"
#include "engine/tree_cache.hpp"
#include "ft/fault_tree.hpp"
#include "ft/tree_delta.hpp"
#include "util/cancel.hpp"
#include "util/thread_pool.hpp"

namespace fta::engine {

enum class AnalysisKind : std::uint8_t {
  Mpmcs,         ///< The paper's six-step MPMCS computation.
  TopK,          ///< k most probable MCSs (superset-blocking enumeration).
  Importance,    ///< BDD-exact importance measures for every event.
  Quantitative,  ///< Top-event probability and MCS-count summary.
};

const char* analysis_kind_name(AnalysisKind k) noexcept;

/// The one request shape every analysis goes through (see analyze()):
/// either an inline `tree` or a registered resource `tree_id`, optionally
/// a `delta` to apply first, plus the kind/k/deadline/solver knobs.
struct AnalysisRequest {
  std::string id;         ///< Caller-chosen label (e.g. the file name).
  ft::FaultTree tree;     ///< Ignored when `tree_id` is set.
  /// Registered tree resource (see create_tree) to analyse instead of
  /// `tree`. The request runs against the resource's current tree and
  /// prepared artefact under the resource lock; the resource's pipeline
  /// configuration (fixed at creation) overrides `pipeline`.
  std::string tree_id;
  /// With `tree_id`: the resource revision the request expects,
  /// "<tree_id>-v<version>". Another revision refuses the request
  /// (Refusal::EtagConflict), judged under the same hold of the resource
  /// lock as the edit. Empty = any revision.
  std::string etag;
  /// Edit to apply before analysing. With `tree_id`: mutates the
  /// resource in place — its artefact is patched (sessions rebased,
  /// dirty strata re-prepared) and its version bumped. Without: the
  /// analysed tree is apply_delta(tree, delta). A delta that does not
  /// apply refuses the request (Refusal::BadDelta).
  std::optional<ft::TreeDelta> delta;
  AnalysisKind kind = AnalysisKind::Mpmcs;
  std::size_t top_k = 3;  ///< TopK only.
  core::PipelineOptions pipeline;
  /// Per-request wall-clock cap; 0 = none.
  double timeout_seconds = 0.0;
};

/// Why the engine refused a request before analysing it.
enum class Refusal : std::uint8_t {
  None,
  BadDelta,      ///< The delta does not apply to the tree.
  UnknownTree,   ///< No resource has the request's `tree_id`.
  EtagConflict,  ///< The resource is not at the request's `etag`.
};

struct QuantitativeSummary {
  double top_probability = 0.0;
  double mcs_count = 0.0;
  std::size_t events = 0;
  std::size_t gates = 0;
};

struct AnalysisResult {
  std::string id;
  AnalysisKind kind = AnalysisKind::Mpmcs;
  bool ok = false;         ///< Analysis ran to completion.
  bool cancelled = false;  ///< Stopped by timeout or cancel_all().
  bool cache_hit = false;  ///< Step 1-4 artefacts came from the cache.
  bool memoized = false;   ///< Whole solution reused (implies cache_hit).
  std::string error;       ///< Parse/validation/analysis failure, if any.
  /// Set when the request was refused; `error` then says why, and a
  /// resource the request named is untouched.
  Refusal refusal = Refusal::None;
  double seconds = 0.0;    ///< Wall clock inside the worker.
  /// Delta lineage: set when the request's delta edited its resource;
  /// `delta` then says how much of the artefact survived the edit.
  bool delta_applied = false;
  core::DeltaApplication delta;
  std::string tree_id;  ///< The request's resource, when it named one.
  /// The resource's version after the request (the current one when the
  /// request was refused for its etag).
  std::uint64_t tree_version = 0;

  core::MpmcsSolution mpmcs;             ///< Mpmcs.
  /// Resource Mpmcs requests: the names of `mpmcs.cut`'s events, resolved
  /// under the resource lock that also took the edit, so the caller needs
  /// no copy of the tree to print the answer.
  std::vector<std::string> cut_names;
  std::vector<core::MpmcsSolution> top;  ///< TopK.
  std::vector<analysis::EventImportance> importance;  ///< Importance.
  QuantitativeSummary quantitative;      ///< Quantitative.
};

struct EngineOptions {
  /// Worker threads; 0 = hardware concurrency.
  std::size_t num_threads = 0;
  /// Prepared-tree LRU capacity (entries); 0 disables caching.
  std::size_t cache_capacity = 256;
  /// Second cache tier: reuse full MPMCS solutions for repeated
  /// (structure, solver configuration) pairs instead of re-solving.
  /// Distinct optimal cuts of equal cost may tie, so disable this when
  /// every request must independently exercise the solver.
  bool memoize_results = true;
  /// Cap on the pool-wide incremental-session footprint: after each
  /// request the cache evicts LRU session-carrying entries until the
  /// total estimate is back under. Complements the per-session cap
  /// (PipelineOptions::incremental_memory_cap_bytes), which bounds one
  /// session but not how many the cache accumulates. 0 = unbounded.
  std::size_t session_memory_cap_bytes = 0;
  /// Fault injection: artificial (cancellable) delay inside the worker
  /// before each analysis. Lets the serving tests hold a request in
  /// flight for a deterministic interval regardless of how fast the
  /// solver is. 0 = off; never set in production configurations.
  double debug_solve_delay_seconds = 0.0;
  /// Solver watchdog: scan interval for in-flight MaxSAT solves. A solve
  /// whose liveness counter (one tick per SAT conflict/call, aggregated
  /// through its cancel token) stays frozen for `watchdog_stall_intervals`
  /// consecutive scans is cancelled; if it ran against a registered tree
  /// resource, the resource is quarantined and reset to cold state (fresh
  /// artefact, no warm session) before its next solve. 0 = watchdog off.
  double watchdog_interval_seconds = 0.0;
  std::size_t watchdog_stall_intervals = 3;
  /// Warm-session self-reset: a warm re-solve on a tree resource gets a
  /// sub-deadline of `warm_reset_multiple` x the resource's EWMA cold-solve
  /// estimate (floored at 50 ms); tripping it abandons the rebased session
  /// and re-descends cold instead of letting a regressed warm path burn
  /// the whole request deadline. 0 disables.
  double warm_reset_multiple = 8.0;
};

struct EngineStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t failed = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t pool_steals = 0;
  std::uint64_t session_memory_bytes = 0;  ///< Current pool-wide estimate.
  std::uint64_t session_evictions = 0;     ///< Entries shed by the cap.
  std::uint64_t trees_active = 0;   ///< Registered tree resources alive.
  std::uint64_t tree_edits = 0;     ///< Deltas applied to resources.
  std::uint64_t watchdog_cancels = 0;  ///< Solves killed for frozen liveness.
  std::uint64_t quarantines = 0;       ///< Resources flagged for cold reset.
  std::uint64_t session_resets = 0;    ///< Warm artefacts rebuilt cold.
};

/// A registered tree resource's public face (the service renders these).
struct TreeResourceInfo {
  std::string id;
  std::uint64_t version = 1;  ///< Bumped per applied delta.
  std::uint64_t edits = 0;    ///< Total delta ops applied.
  std::size_t events = 0;
  std::size_t nodes = 0;
  /// Monotonic use tick (not wall time): higher = more recently used.
  /// The service's LRU eviction picks the minimum.
  std::uint64_t last_used = 0;
};

/// Handle returned by analyze(): the request label plus the future
/// carrying its result. Analysis failures are reported inside
/// AnalysisResult, never thrown through the future.
struct AnalysisTicket {
  std::string id;
  std::future<AnalysisResult> result;
};

class AnalysisEngine {
 public:
  explicit AnalysisEngine(EngineOptions opts = {});
  ~AnalysisEngine();

  AnalysisEngine(const AnalysisEngine&) = delete;
  AnalysisEngine& operator=(const AnalysisEngine&) = delete;

  /// THE entry point: schedules one request — inline tree or registered
  /// resource, with or without a delta, any analysis kind — and returns
  /// a ticket with the result future. Analysis errors are reported in
  /// AnalysisResult::error, never thrown.
  AnalysisTicket analyze(AnalysisRequest request);

  /// Thin shim over analyze() (the historical entry point).
  std::future<AnalysisResult> submit(AnalysisRequest request) {
    return analyze(std::move(request)).result;
  }

  /// Runs a whole batch and returns results in submission order.
  std::vector<AnalysisResult> run_batch(std::vector<AnalysisRequest> requests);

  // --- stateful tree resources (the mutation API's server side) --------

  /// Registers `tree` as a mutable resource and eagerly prepares its
  /// solver artefact under `pipeline` (fixed for the resource's
  /// lifetime). Returns the assigned id ("t1", "t2", ...). Requests
  /// referencing the id run against the resource's current state;
  /// deltas (AnalysisRequest::delta) mutate it in place, patching the
  /// artefact instead of rebuilding it. Throws ft::ValidationError on an
  /// invalid tree.
  std::string create_tree(ft::FaultTree tree, core::PipelineOptions pipeline);

  /// Journal recovery: re-registers a resource under its *original* id
  /// with its recorded version/edit counters, so restored resources are
  /// byte-identical to their pre-crash selves (same etag). The id
  /// allocator is advanced past any numeric id restored this way. Throws
  /// ft::ValidationError on an invalid tree, std::invalid_argument on a
  /// duplicate id.
  void restore_tree(const std::string& id, ft::FaultTree tree,
                    core::PipelineOptions pipeline, std::uint64_t version,
                    std::uint64_t edits);

  /// Destroys a resource (its artefact and sessions die with the last
  /// in-flight request). Returns false for an unknown id.
  bool release_tree(const std::string& id);

  /// The resource's counters, read without its lock; nullopt for an
  /// unknown id. A non-null `text` receives its current tree in the
  /// parser's text format (the GET representation and the journal's
  /// post-image), read under the resource lock with the counters.
  std::optional<TreeResourceInfo> tree_info(const std::string& id,
                                            std::string* text = nullptr) const;
  /// Copy of the resource's current tree (callers render cut-set event
  /// names from it); nullopt for an unknown id. Events are only ever
  /// appended by edits, so a snapshot taken after a solve can name every
  /// event index that solve produced.
  std::optional<ft::FaultTree> tree_snapshot(const std::string& id) const;
  std::vector<TreeResourceInfo> list_trees() const;
  std::size_t num_trees() const;

  /// Cancels queued and running requests. Running solvers observe the
  /// lifetime token at their next poll; queued requests complete
  /// immediately as cancelled. The engine stays usable afterwards for new
  /// submissions (they get a fresh lifetime token).
  void cancel_all();

  std::size_t num_threads() const noexcept { return pool_.size(); }
  EngineStats stats() const;

 private:
  /// One registered mutable tree: the current tree and its exclusively
  /// owned prepared artefact (whose frontier modules keep their proven
  /// optima across edits elsewhere). `mutex` linearizes edits and solves
  /// per resource; different resources run concurrently.
  struct TreeResource {
    mutable std::mutex mutex;
    ft::FaultTree tree;
    core::PipelineOptions pipeline;
    core::PreparedInstance prepared;
    /// The counters tree_info reports: written under `mutex`, read without
    /// it, so a listing or an eviction never waits for a solve.
    std::atomic<std::uint64_t> version{1};
    std::atomic<std::uint64_t> edits{0};
    std::atomic<std::uint64_t> last_used{0};
    std::atomic<std::size_t> events{0};
    std::atomic<std::size_t> nodes{0};
    /// Set by the watchdog (outside `mutex` — the wedged solve holds it);
    /// the next solve observes it and rebuilds the artefact cold.
    std::atomic<bool> quarantined{false};
    /// EWMA of cold-solve wall seconds (solves on a freshly prepared
    /// artefact); the warm self-reset heuristic budgets against it.
    double cold_solve_ewma = 0.0;
    /// True until the first solve after create/restore/reset: that solve
    /// is the cold reference the EWMA learns from.
    bool fresh_artefact = true;
  };

  /// One watched in-flight MaxSAT solve (registered while the solver
  /// actually runs — never while queued or waiting on a resource lock,
  /// so lock convoys cannot read as stalls).
  struct WatchedSolve {
    util::CancelTokenPtr token;
    std::string tree_id;
    std::uint64_t last_progress = 0;
    std::size_t stalled_scans = 0;
    bool cancelled = false;
  };

  class WatchScope;

  AnalysisResult execute(AnalysisRequest request, util::CancelTokenPtr token);
  /// The registered resource `id`, or null.
  std::shared_ptr<TreeResource> resource(const std::string& id) const;
  /// Cache lookup-or-build of the Step 1-4/3.5 artefact for the request
  /// tree; sets result.cache_hit on a hit.
  PreparedTreePtr prepared_for(const core::MpmcsPipeline& pipeline,
                               const AnalysisRequest& request,
                               AnalysisResult& result);
  void run_mpmcs(const AnalysisRequest& request, util::CancelTokenPtr token,
                 AnalysisResult& result);
  void run_top_k(const AnalysisRequest& request, util::CancelTokenPtr token,
                 AnalysisResult& result);
  /// The tree_id path, in one hold of the resource lock: check the etag,
  /// apply any delta (a weight edit to the live tree in place; both
  /// patch the artefact in place), then run the analysis on the
  /// resource's current state.
  void run_resource(const AnalysisRequest& request, util::CancelTokenPtr token,
                    AnalysisResult& result);
  void run_importance(const ft::FaultTree& tree, util::CancelTokenPtr token,
                      AnalysisResult& result) const;
  void run_quantitative(const ft::FaultTree& tree,
                        AnalysisResult& result) const;

  void watchdog_loop();
  void quarantine_tree(const std::string& id);
  std::uint64_t watch_begin(const util::CancelTokenPtr& token,
                            const std::string& tree_id);
  void watch_end(std::uint64_t id);

  EngineOptions opts_;
  TreeCache cache_;

  mutable std::mutex lifetime_mutex_;
  util::CancelTokenPtr lifetime_;  ///< Parent of every request token.

  mutable std::mutex trees_mutex_;
  std::unordered_map<std::string, std::shared_ptr<TreeResource>> trees_;
  std::atomic<std::uint64_t> next_tree_id_{0};
  std::atomic<std::uint64_t> use_tick_{0};
  std::atomic<std::uint64_t> tree_edits_{0};

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> cancelled_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> memo_hits_{0};
  std::atomic<std::uint64_t> watchdog_cancels_{0};
  std::atomic<std::uint64_t> quarantines_{0};
  std::atomic<std::uint64_t> session_resets_{0};

  std::mutex watchdog_mutex_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;
  std::uint64_t next_watch_id_ = 0;
  std::unordered_map<std::uint64_t, WatchedSolve> watched_;
  std::thread watchdog_;

  /// Declared last: its destructor joins the workers while every member
  /// they touch is still alive.
  util::ThreadPool pool_;
};

}  // namespace fta::engine
