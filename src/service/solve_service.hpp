// Analysis-as-a-service: the resident multi-tenant solve front-end.
//
// The batch engine (engine/AnalysisEngine) already owns the heavy
// machinery — prepared-instance LRU, solution memoization, incremental
// sessions, cancel/deadline tokens, a work-stealing pool. This layer
// turns it into a long-running server back-end:
//
//   * Request coalescing — concurrent requests whose structural key
//     matches (same tree shape/probabilities, same solver configuration,
//     same analysis kind) share ONE in-flight engine solve and fan the
//     result out; each requester renders the answer with its own event
//     names. A monitoring fleet hammering the same plant model costs one
//     solve, not N.
//   * Per-tenant admission control — one gate for every request the
//     engine queues (solves, top-k and edits): a draining server (503),
//     then bounded global (503) and per-tenant (429) outstanding-work
//     queues. A flooding tenant exhausts its own quota long before it
//     can starve the global queue; shed requests cost a JSON parse, not a
//     solve.
//   * Deadline-aware scheduling — requests carry `deadline_ms`; ones the
//     queue cannot meet (estimated wait from queue depth x an EWMA of
//     recent solve times) are rejected up front with 503 instead of
//     being solved late, and admitted ones run under a cancel-token
//     deadline so an expired request frees its worker at the next poll.
//   * Session-pool memory bound — the engine evicts prepared-tree LRU
//     entries (and with them their incremental SAT sessions) once the
//     pool's total session footprint passes the configured cap.
//
//   * Stateful tree resources — POST /v1/trees registers a mutable tree
//     (eagerly prepared by the engine); PATCH applies a TreeDelta and
//     re-solves against the patched artefact (sessions rebased, only
//     dirty strata re-prepared) instead of re-preparing from scratch.
//     A PATCH is read, checked against its owner, admitted, and then the
//     engine judges its etag ("<id>-v<version>"; stale etag = 409) and
//     its delta (400) under the same hold of the resource lock that
//     applies the edit and re-solves. Trees are tenant-owned (a foreign id
//     answers 404, indistinguishable from absent), per-tenant creation is
//     quota-bounded (429) and the global pool is LRU-evicted at capacity.
//
// Endpoints (JSON in/out, schema shared with the batch CLI):
//   POST /v1/solve        {"tenant", "tree", "solver"?, "deadline_ms"?}
//   POST /v1/topk         {..., "k"}
//   POST /v1/trees        {"tenant", "tree", "solver"?} -> {id, etag}
//   GET  /v1/trees        {"tenant"?} -> owned resources
//   GET  /v1/trees/{id}   {"tenant"?} -> metadata + tree text
//   PATCH /v1/trees/{id}  {"tenant"?, "etag"?, "delta": [...],
//                          "deadline_ms"?} -> re-solved MPMCS + lineage
//   DELETE /v1/trees/{id} {"tenant"?}
//   GET  /v1/healthz
//   GET  /v1/statsz  counters + p50/p99 latency, global and per tenant
//
// The transport (service/http_server) carries no headers, so the etag
// and tenant ride in the JSON body on every tree-resource request.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "engine/analysis_engine.hpp"
#include "service/http_server.hpp"
#include "service/journal.hpp"
#include "service/stats.hpp"
#include "util/timer.hpp"

namespace fta::service {

struct ServiceOptions {
  /// Engine worker threads; 0 = hardware concurrency.
  std::size_t engine_threads = 0;
  /// Prepared-tree LRU entries.
  std::size_t cache_capacity = 512;
  /// Reuse whole solutions for repeated (structure, config) pairs.
  bool memoize_results = true;
  /// Total incremental-session memory across all cached trees; above it
  /// the engine evicts LRU entries until back under. 0 = unbounded.
  std::size_t session_memory_cap_bytes = std::size_t{2} << 30;
  /// Max outstanding (queued + running) requests per tenant; beyond it
  /// requests are shed with 429.
  std::size_t tenant_queue_limit = 64;
  /// Max outstanding requests across all tenants; beyond it 503.
  std::size_t global_queue_limit = 512;
  /// Applied when a request carries no deadline_ms; 0 = no deadline.
  double default_deadline_seconds = 0.0;
  /// Upper bound on client deadlines (longer ones are clamped).
  double max_deadline_seconds = 300.0;
  /// Floor for the per-solve service-time estimate used by the
  /// deadline-aware admission check (the EWMA starts cold).
  double min_service_estimate_seconds = 0.002;
  /// Cap on top-k enumeration length per request.
  std::size_t max_top_k = 64;
  /// Max registered tree resources per tenant; POST /v1/trees beyond it
  /// is shed with 429.
  std::size_t tenant_tree_limit = 16;
  /// Global cap on registered tree resources; creating past it evicts
  /// the least-recently-used resource (engine use tick). 0 = unbounded.
  std::size_t max_trees = 64;
  /// Fault injection forwarded to the engine (see
  /// EngineOptions::debug_solve_delay_seconds); test-only.
  double debug_solve_delay_seconds = 0.0;
  /// Crash-safe /v1/trees persistence: directory for the append-only
  /// journal + snapshot (see service/journal). Empty = in-memory only.
  std::string journal_dir;
  /// fsync the journal before acknowledging each tree mutation.
  bool journal_fsync = true;
  std::size_t journal_compact_threshold_bytes = 4u << 20;
  /// Solver watchdog (EngineOptions::watchdog_*): scan interval for
  /// in-flight solves; a solve with no SAT-level progress across
  /// `watchdog_stall_intervals` scans is cancelled and its resource
  /// quarantined for a cold reset. 0 = off.
  double watchdog_interval_seconds = 1.0;
  std::size_t watchdog_stall_intervals = 5;
  /// Warm-session self-reset multiple (EngineOptions::warm_reset_multiple).
  double warm_reset_multiple = 8.0;
  /// Base pipeline configuration; requests may override the solver.
  core::PipelineOptions pipeline;
};

class SolveService {
 public:
  explicit SolveService(ServiceOptions opts = {});
  ~SolveService();

  SolveService(const SolveService&) = delete;
  SolveService& operator=(const SolveService&) = delete;

  /// Routes one HTTP request. Never throws: every failure path is a
  /// structured JSON error response.
  HttpResponse handle(const HttpRequest& request);

  /// Flips healthz to "draining" and sheds new solves with 503; requests
  /// already admitted keep running (the HTTP layer drains them).
  void begin_shutdown();

  engine::AnalysisEngine& engine() noexcept { return engine_; }
  ServiceStats& stats() noexcept { return stats_; }
  std::size_t queue_depth() const noexcept {
    return outstanding_.load(std::memory_order_relaxed);
  }
  const ServiceOptions& options() const noexcept { return opts_; }

  /// The /v1/statsz document (exposed for the CLI's final report).
  std::string statsz_json();

 private:
  struct Flight {
    std::shared_future<engine::AnalysisResult> future;
  };
  using FlightPtr = std::shared_ptr<Flight>;
  /// The endpoints that read a request body, each with its own members.
  enum class Endpoint : std::uint8_t { Solve, TopK, Create, Patch, Tree };
  /// A request body's members, as read_body() checked them.
  struct Body;

  HttpResponse handle_routed(const HttpRequest& request);
  HttpResponse handle_solve(const HttpRequest& request,
                            engine::AnalysisKind kind);
  HttpResponse handle_healthz();
  HttpResponse handle_readyz();
  /// Test-only fault-injection control plane (/v1/failz); answers 501
  /// unless the build compiled the failpoint registry in.
  HttpResponse handle_failz(const HttpRequest& request);
  /// Journal replay on boot: re-registers every recovered resource under
  /// its original id/version (identical etags) and owner.
  void replay_journal();

  // --- the /v1/trees resource API --------------------------------------
  HttpResponse handle_tree_create(const HttpRequest& request);
  HttpResponse handle_tree_list(const HttpRequest& request);
  HttpResponse handle_tree_get(const HttpRequest& request,
                               const std::string& id);
  HttpResponse handle_tree_patch(const HttpRequest& request,
                                 const std::string& id);
  HttpResponse handle_tree_delete(const HttpRequest& request,
                                  const std::string& id);
  /// The one tenant-and-owner check of GET, PATCH and DELETE on a tree:
  /// the 404 unless `tenant` owns `id`. Ownership is the visibility
  /// boundary: a wrong-tenant probe is answered exactly like a missing id.
  std::optional<HttpResponse> unless_owned(const std::string& id,
                                           const std::string& tenant) const;

  /// The one body reader: a JSON object whose tenant is 1..128 bytes,
  /// then the members `endpoint` takes, in one order — the tree (its
  /// format, and names Galileo text can write) and the solver, k, the
  /// etag and the delta, deadline_ms. For Endpoint::Tree (a tree's GET
  /// and DELETE, and the listing) a blank body is the default tenant.
  /// Throws on a defect, with the 400's message.
  Body read_body(const std::string& text, Endpoint endpoint) const;
  /// The 400 of an unreadable body, counted globally.
  HttpResponse bad_request(const std::string& message);
  /// Counts one event globally and for `tenant`.
  void count(TenantCounters& tenant,
             std::atomic<std::uint64_t> TenantCounters::*counter);
  /// The one admission gate for work the engine queues: 503 while
  /// draining, 503 when the global queue is full, 429 when the tenant's
  /// is, and 503 when the estimated wait exceeds the body's deadline,
  /// each refusal counted. An admitted request holds a queue slot until
  /// release().
  std::optional<HttpResponse> admit(const Body& body, TenantCounters& tenant);
  /// Frees admit()'s slot; an engine run that solved feeds the
  /// service-time estimate and the engineSolves counters.
  void release(TenantCounters& tenant, const engine::AnalysisResult& result);
  /// The one answer renderer for an engine result: a refusal (400, 404,
  /// 409), the approximate 200, a 504 (deadline or cancellation;
  /// `timed_out` for a follower that stopped waiting), a 500, or the
  /// optimal 200, each counted. `members` renders the endpoint's own
  /// members of the 200 that `optimal` names, placed after the tenant.
  HttpResponse answer(const Body& body, TenantCounters& tenant,
                      const util::Timer& arrival,
                      const engine::AnalysisResult& result, bool timed_out,
                      const std::function<std::string(bool optimal)>& members);

  /// EWMA of recent engine-run times (memo hits excluded) for the
  /// admission estimate.
  double service_estimate() const;
  void observe_service_time(double seconds);

  ServiceOptions opts_;
  ServiceStats stats_;
  std::atomic<bool> draining_{false};
  std::atomic<std::size_t> outstanding_{0};

  std::mutex flights_mutex_;
  std::unordered_map<std::string, FlightPtr> flights_;

  /// Tree-resource ownership (id -> tenant). The engine's registry is
  /// tenant-blind; this map is what scopes ids, enforces the per-tenant
  /// creation quota and drives LRU eviction bookkeeping.
  mutable std::mutex trees_mutex_;
  std::unordered_map<std::string, std::string> tree_owners_;
  std::atomic<std::uint64_t> trees_created_{0};
  std::atomic<std::uint64_t> trees_evicted_{0};
  std::atomic<std::uint64_t> etag_conflicts_{0};

  mutable std::mutex estimate_mutex_;
  double ewma_seconds_ = 0.0;
  bool ewma_primed_ = false;

  /// Durable tree-resource store; declared before engine_ so recovered
  /// state outlives every in-flight engine request on shutdown.
  TreeJournal journal_;
  std::atomic<bool> ready_{false};
  std::uint64_t restored_trees_ = 0;  ///< Written once in the constructor.

  /// Declared last so its destructor (which joins the pool) runs first.
  engine::AnalysisEngine engine_;
};

}  // namespace fta::service
