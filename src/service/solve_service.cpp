#include "service/solve_service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "format/format.hpp"
#include "ft/parser.hpp"
#include "ft/tree_delta.hpp"
#include "sat/solver.hpp"
#include "util/failpoint.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"
#include "util/timer.hpp"

namespace fta::service {

namespace {

using engine::AnalysisKind;
using engine::AnalysisRequest;
using engine::AnalysisResult;

HttpResponse error_response(int status, const char* code,
                            const std::string& message) {
  HttpResponse r;
  r.status = status;
  r.body = std::string("{\"ok\": false, \"code\": \"") + code +
           "\", \"error\": \"" + util::json_escape(message) + "\"}";
  return r;
}

/// The 504 text for a cancelled `what` ("solve", "re-solve"): the deadline
/// when the request set one, else the cancellation (a watchdog that saw
/// no progress, or shutdown).
std::string cancelled_message(double deadline_seconds, const char* what) {
  if (deadline_seconds > 0.0) {
    return "deadline of " + util::format_double(deadline_seconds) +
           "s expired before the " + what + " finished";
  }
  return std::string("the ") + what + " was cancelled before it finished";
}

/// Parses an embedded tree body. `format_name` is the request's "format"
/// member (auto = sniff); unknown names and parse defects both surface as
/// exceptions the handlers map to HTTP 400.
fta::ft::FaultTree parse_tree_text(const std::string& text,
                                   const std::string& format_name = "auto") {
  format::ParseOptions popts;
  if (!format::parse_format_name(format_name, &popts.format)) {
    throw util::JsonError(
        0, "unknown format \"" + format_name +
               "\" (expected auto, json, galileo, or openpsa)");
  }
  return format::parse_tree(text, popts);
}

/// Identical shape to the batch CLI's per-solution JSON; `names` are the
/// names of `sol.cut`'s events. Approximate (anytime) answers additionally
/// carry the certified optimality bounds.
std::string solution_json(const std::vector<std::string>& names,
                          const core::MpmcsSolution& sol) {
  std::string cut = "[";
  for (const std::string& name : names) {
    if (cut.size() > 1) cut += ", ";
    cut += '"' + util::json_escape(name) + '"';
  }
  std::string j = "{\"probability\": " + util::json_number(sol.probability) +
                  ", \"logCost\": " + util::json_number(sol.log_cost) +
                  ", \"solver\": \"" + util::json_escape(sol.solver_name) +
                  "\", \"lineage\": \"" + util::json_escape(sol.lineage) +
                  "\", \"satDecisions\": " +
                  std::to_string(sol.sat_decisions) +
                  ", \"satPropagations\": " +
                  std::to_string(sol.sat_propagations) +
                  ", \"satConflicts\": " + std::to_string(sol.sat_conflicts) +
                  ", \"mpmcs\": " + cut + "]";
  if (sol.approximate) {
    j += ", \"approximate\": true";
    j += ", \"scaledCost\": " + std::to_string(sol.scaled_cost);
    j += ", \"scaledLowerBound\": " + std::to_string(sol.scaled_lower_bound);
    j += ", \"probabilityUpperBound\": " +
         util::json_number(sol.probability_upper_bound);
    j += ", \"optimalityGap\": " + util::json_number(sol.optimality_gap);
  }
  return j + "}";
}

/// Strong etag over a resource revision: "<id>-v<version>".
std::string make_etag(const std::string& id, std::uint64_t version) {
  return id + "-v" + std::to_string(version);
}

/// Validated tenant for body-optional requests (GET/DELETE on tree
/// resources). An empty body means the default tenant; a malformed one
/// sets `error` and returns empty.
std::string tenant_from_body(const std::string& body, std::string* error) {
  if (body.find_first_not_of(" \t\r\n") == std::string::npos) return "default";
  try {
    const util::JsonValue doc = util::JsonValue::parse(body);
    if (!doc.is_object()) {
      throw util::JsonError(0, "request body must be a JSON object");
    }
    std::string tenant = doc.get_string("tenant", "default");
    if (tenant.empty() || tenant.size() > 128) {
      throw util::JsonError(0, "tenant must be 1..128 bytes");
    }
    return tenant;
  } catch (const std::exception& e) {
    *error = e.what();
    return std::string();
  }
}

/// The re-solve lineage the mutation path reports: how much of the
/// artefact survived the edit.
std::string delta_application_json(const core::DeltaApplication& d) {
  std::string j = "{";
  j += std::string("\"weightOnly\": ") + (d.weight_only ? "true" : "false") +
       ", ";
  j += std::string("\"sessionRebased\": ") +
       (d.session_rebased ? "true" : "false") + ", ";
  j += std::string("\"reprepared\": ") + (d.reprepared ? "true" : "false") +
       ", ";
  j += "\"strataTotal\": " + std::to_string(d.strata_total) + ", ";
  j += "\"strataReused\": " + std::to_string(d.strata_reused) + ", ";
  j += "\"strataReweighted\": " + std::to_string(d.strata_reweighted) + ", ";
  j += "\"strataReprepared\": " + std::to_string(d.strata_reprepared);
  return j + "}";
}

std::string tenant_json(const std::string& name, const TenantCounters& t,
                        std::size_t queue_depth) {
  std::string j = "{";
  if (!name.empty()) j += "\"tenant\": \"" + util::json_escape(name) + "\", ";
  j += "\"requests\": " + std::to_string(t.requests.load()) + ", ";
  j += "\"ok\": " + std::to_string(t.ok.load()) + ", ";
  j += "\"coalescedHits\": " + std::to_string(t.coalesced.load()) + ", ";
  j += "\"memoHits\": " + std::to_string(t.memo_hits.load()) + ", ";
  j += "\"cacheHits\": " + std::to_string(t.cache_hits.load()) + ", ";
  j += "\"engineSolves\": " + std::to_string(t.engine_solves.load()) + ", ";
  j += "\"rejectedQuota\": " + std::to_string(t.rejected_quota.load()) + ", ";
  j += "\"rejectedCapacity\": " + std::to_string(t.rejected_capacity.load()) +
       ", ";
  j += "\"rejectedDeadline\": " + std::to_string(t.rejected_deadline.load()) +
       ", ";
  j += "\"deadlineExceeded\": " + std::to_string(t.deadline_exceeded.load()) +
       ", ";
  j += "\"degraded\": " + std::to_string(t.degraded.load()) + ", ";
  j += "\"badRequests\": " + std::to_string(t.bad_requests.load()) + ", ";
  j += "\"errors\": " + std::to_string(t.errors.load()) + ", ";
  j += "\"queueDepth\": " + std::to_string(queue_depth) + ", ";
  j += "\"p50Seconds\": " +
       util::format_double(t.latency.quantile_seconds(0.50)) + ", ";
  j += "\"p99Seconds\": " +
       util::format_double(t.latency.quantile_seconds(0.99));
  return j + "}";
}

}  // namespace

SolveService::SolveService(ServiceOptions opts)
    : opts_(std::move(opts)),
      journal_({opts_.journal_dir, opts_.journal_fsync,
                opts_.journal_compact_threshold_bytes}),
      engine_([&] {
        engine::EngineOptions e;
        e.num_threads = opts_.engine_threads;
        e.cache_capacity = opts_.cache_capacity;
        e.memoize_results = opts_.memoize_results;
        e.session_memory_cap_bytes = opts_.session_memory_cap_bytes;
        e.debug_solve_delay_seconds = opts_.debug_solve_delay_seconds;
        e.watchdog_interval_seconds = opts_.watchdog_interval_seconds;
        e.watchdog_stall_intervals = opts_.watchdog_stall_intervals;
        e.warm_reset_multiple = opts_.warm_reset_multiple;
        return e;
      }()) {
  replay_journal();
  ready_.store(true, std::memory_order_release);
}

SolveService::~SolveService() = default;

void SolveService::replay_journal() {
  if (!journal_.enabled()) return;
  for (const JournalEntry& e : journal_.recover()) {
    // Per-entry isolation: one unparsable resource (e.g. written by a
    // newer schema) must not take down the rest of the recovery.
    try {
      ft::FaultTree tree = parse_tree_text(e.tree_text);
      tree.validate();
      core::PipelineOptions popts = opts_.pipeline;
      if (!e.solver.empty()) core::parse_solver_choice(e.solver, &popts.solver);
      engine_.restore_tree(e.id, std::move(tree), popts, e.version, e.edits);
      {
        std::lock_guard<std::mutex> lock(trees_mutex_);
        tree_owners_.emplace(e.id, e.tenant.empty() ? "default" : e.tenant);
      }
      ++restored_trees_;
    } catch (const std::exception&) {
      // Skip: the journal itself stays intact, so a fixed binary can
      // still recover the record later.
    }
  }
}

void SolveService::begin_shutdown() {
  draining_.store(true, std::memory_order_relaxed);
}

double SolveService::service_estimate() const {
  std::lock_guard<std::mutex> lock(estimate_mutex_);
  return std::max(ewma_primed_ ? ewma_seconds_ : 0.0,
                  opts_.min_service_estimate_seconds);
}

void SolveService::observe_service_time(double seconds) {
  std::lock_guard<std::mutex> lock(estimate_mutex_);
  if (!ewma_primed_) {
    ewma_seconds_ = seconds;
    ewma_primed_ = true;
  } else {
    ewma_seconds_ = 0.8 * ewma_seconds_ + 0.2 * seconds;
  }
}

HttpResponse SolveService::handle(const HttpRequest& request) {
  // Chaos boundary: an injected (or real) exception escaping any handler
  // becomes a structured 500, never a dead connection or a crash.
  if (FTA_FAILPOINT_BRANCH("service.request")) {
    return error_response(500, "injected_fault",
                          "failpoint service.request fired");
  }
  try {
    return handle_routed(request);
  } catch (const std::exception& e) {
    return error_response(500, "internal", e.what());
  }
}

HttpResponse SolveService::handle_routed(const HttpRequest& request) {
  std::string path = request.path;
  const auto query = path.find('?');
  if (query != std::string::npos) path.resize(query);
  if (path == "/v1/healthz") {
    if (request.method != "GET") {
      return error_response(405, "bad_request", "healthz is GET-only");
    }
    return handle_healthz();
  }
  if (path == "/v1/readyz") {
    if (request.method != "GET") {
      return error_response(405, "bad_request", "readyz is GET-only");
    }
    return handle_readyz();
  }
  if (path == "/v1/failz") {
    return handle_failz(request);
  }
  if (path == "/v1/statsz") {
    if (request.method != "GET") {
      return error_response(405, "bad_request", "statsz is GET-only");
    }
    HttpResponse r;
    r.body = statsz_json();
    return r;
  }
  if (path == "/v1/solve" || path == "/v1/topk") {
    if (request.method != "POST") {
      return error_response(405, "bad_request", "solve endpoints are POST");
    }
    return handle_solve(
        request, path == "/v1/solve" ? AnalysisKind::Mpmcs
                                     : AnalysisKind::TopK);
  }
  if (path == "/v1/trees") {
    if (request.method == "POST") return handle_tree_create(request);
    if (request.method == "GET") return handle_tree_list(request);
    return error_response(405, "bad_request", "/v1/trees is POST or GET");
  }
  const std::string trees_prefix = "/v1/trees/";
  if (path.rfind(trees_prefix, 0) == 0) {
    const std::string id = path.substr(trees_prefix.size());
    if (id.empty() || id.find('/') != std::string::npos) {
      return error_response(404, "not_found", "malformed tree id");
    }
    if (request.method == "GET") return handle_tree_get(request, id);
    if (request.method == "PATCH") return handle_tree_patch(request, id);
    if (request.method == "DELETE") return handle_tree_delete(request, id);
    return error_response(405, "bad_request",
                          "tree resources accept GET, PATCH, DELETE");
  }
  return error_response(404, "not_found",
                        "unknown path " + request.path +
                            " (try /v1/solve, /v1/topk, /v1/trees, "
                            "/v1/healthz, /v1/readyz, /v1/statsz)");
}

HttpResponse SolveService::handle_healthz() {
  HttpResponse r;
  const bool draining = draining_.load(std::memory_order_relaxed);
  r.body = std::string("{\"ok\": true, \"status\": \"") +
           (draining ? "draining" : "serving") + "\"}";
  return r;
}

HttpResponse SolveService::handle_readyz() {
  // Ready = journal replay finished and not draining. Load balancers and
  // the chaos harness gate traffic on this, not healthz (which answers
  // 200 the moment the listener is up, possibly mid-recovery).
  const bool ready = ready_.load(std::memory_order_acquire) &&
                     !draining_.load(std::memory_order_relaxed);
  HttpResponse r;
  r.status = ready ? 200 : 503;
  r.body = std::string("{\"ok\": ") + (ready ? "true" : "false") +
           ", \"ready\": " + (ready ? "true" : "false") +
           ", \"restoredTrees\": " + std::to_string(restored_trees_) +
           ", \"journal\": " + (journal_.enabled() ? "true" : "false") + "}";
  return r;
}

HttpResponse SolveService::handle_failz(const HttpRequest& request) {
  if (!util::failpoints_compiled()) {
    return error_response(501, "not_compiled",
                          "failpoints are compiled out; rebuild with "
                          "-DMPMCS_FAILPOINTS=ON");
  }
  if (request.method == "GET") {
    HttpResponse r;
    r.body = "{\"ok\": true, \"failpoints\": " + util::failpoints_json() + "}";
    return r;
  }
  if (request.method == "DELETE") {
    util::clear_failpoints();
    HttpResponse r;
    r.body = "{\"ok\": true, \"failpoints\": []}";
    return r;
  }
  if (request.method == "POST") {
    try {
      const util::JsonValue doc = util::JsonValue::parse(request.body);
      if (!doc.is_object()) {
        throw util::JsonError(0, "request body must be a JSON object");
      }
      util::configure_failpoints(doc.get_string("spec", ""));
    } catch (const std::exception& e) {
      return error_response(400, "bad_request", e.what());
    }
    HttpResponse r;
    r.body = "{\"ok\": true, \"failpoints\": " + util::failpoints_json() + "}";
    return r;
  }
  return error_response(405, "bad_request", "failz accepts GET, POST, DELETE");
}

HttpResponse SolveService::handle_solve(const HttpRequest& request,
                                        AnalysisKind kind) {
  util::Timer arrival;
  TenantCounters& anon = stats_.global();
  anon.requests.fetch_add(1, std::memory_order_relaxed);

  // --- parse & validate the request (no engine resources yet) ----------
  std::string tenant_name = "default";
  ft::FaultTree tree;
  core::PipelineOptions popts = opts_.pipeline;
  std::size_t top_k = 3;
  double deadline_seconds = opts_.default_deadline_seconds;
  try {
    const util::JsonValue doc = util::JsonValue::parse(request.body);
    if (!doc.is_object()) {
      throw util::JsonError(0, "request body must be a JSON object");
    }
    tenant_name = doc.get_string("tenant", "default");
    if (tenant_name.empty() || tenant_name.size() > 128) {
      throw util::JsonError(0, "tenant must be 1..128 bytes");
    }
    const std::string tree_text = doc.get_string("tree", "");
    if (tree_text.empty()) {
      throw util::JsonError(0, "missing required member \"tree\"");
    }
    tree = parse_tree_text(tree_text, doc.get_string("format", "auto"));
    tree.validate();
    const std::string solver = doc.get_string("solver", "");
    if (!solver.empty() && !core::parse_solver_choice(solver, &popts.solver)) {
      throw util::JsonError(0, "unknown solver \"" + solver + "\"");
    }
    if (kind == AnalysisKind::TopK) {
      const double k = doc.get_number("k", 3.0);
      if (!(k >= 1.0) ||
          k > static_cast<double>(opts_.max_top_k)) {
        throw util::JsonError(0, "k must be in [1, " +
                                     std::to_string(opts_.max_top_k) + "]");
      }
      top_k = static_cast<std::size_t>(k);
    }
    const double deadline_ms = doc.get_number("deadline_ms", -1.0);
    if (deadline_ms >= 0.0) {
      deadline_seconds =
          std::min(deadline_ms / 1e3, opts_.max_deadline_seconds);
    } else if (doc.find("deadline_ms") != nullptr) {
      throw util::JsonError(0, "deadline_ms must be >= 0");
    }
  } catch (const std::exception& e) {
    anon.bad_requests.fetch_add(1, std::memory_order_relaxed);
    return error_response(400, "bad_request", e.what());
  }

  TenantCounters& tenant = stats_.tenant(tenant_name);
  tenant.requests.fetch_add(1, std::memory_order_relaxed);

  // --- coalescing: join a structurally identical in-flight solve -------
  // The key extends the engine's structural signature (tree shape +
  // probabilities + transformation options; names excluded) with the
  // outcome-shaping solver configuration and the analysis kind, so two
  // coalesced requests are guaranteed the same answer.
  std::string key = engine::structural_key(tree, popts);
  key.push_back('|');
  key.push_back(kind == AnalysisKind::TopK ? 'K' : 'M');
  key += std::to_string(kind == AnalysisKind::TopK ? top_k : 0);
  key.push_back('|');
  key += engine::outcome_key(popts);

  // Join-or-lead is decided and committed under one hold of the flights
  // lock — a window between "no flight found" and "flight published"
  // would let two identical requests both elect themselves leader and
  // solve twice. Admission (leaders only: followers cost no solve) runs
  // inside the same hold; it is a handful of atomic reads.
  FlightPtr flight;
  bool leader = false;
  {
    std::lock_guard<std::mutex> lock(flights_mutex_);
    const auto it = flights_.find(key);
    if (it != flights_.end()) {
      flight = it->second;
    } else {
      if (draining_.load(std::memory_order_relaxed)) {
        return error_response(503, "shutting_down", "server is draining");
      }
      const std::size_t global_depth =
          outstanding_.load(std::memory_order_relaxed);
      if (global_depth >= opts_.global_queue_limit) {
        anon.rejected_capacity.fetch_add(1, std::memory_order_relaxed);
        tenant.rejected_capacity.fetch_add(1, std::memory_order_relaxed);
        return error_response(
            503, "over_capacity",
            "global queue is full (" + std::to_string(global_depth) +
                " outstanding)");
      }
      const auto tenant_depth = static_cast<std::size_t>(
          std::max<std::int64_t>(0, tenant.outstanding.load()));
      if (tenant_depth >= opts_.tenant_queue_limit) {
        anon.rejected_quota.fetch_add(1, std::memory_order_relaxed);
        tenant.rejected_quota.fetch_add(1, std::memory_order_relaxed);
        return error_response(429, "over_quota",
                              "tenant \"" + tenant_name + "\" has " +
                                  std::to_string(tenant_depth) +
                                  " requests outstanding");
      }
      if (deadline_seconds > 0.0) {
        // Deadline-aware shedding: solving a request that cannot finish
        // in time wastes a worker AND still fails the client — reject
        // early.
        const double estimated_wait =
            (static_cast<double>(global_depth) /
                 static_cast<double>(engine_.num_threads()) +
             1.0) *
            service_estimate();
        if (estimated_wait > deadline_seconds) {
          anon.rejected_deadline.fetch_add(1, std::memory_order_relaxed);
          tenant.rejected_deadline.fetch_add(1, std::memory_order_relaxed);
          return error_response(
              503, "deadline_unmeetable",
              "estimated wait " + util::format_double(estimated_wait) +
                  "s exceeds the " + util::format_double(deadline_seconds) +
                  "s deadline");
        }
      }

      outstanding_.fetch_add(1, std::memory_order_relaxed);
      tenant.outstanding.fetch_add(1, std::memory_order_relaxed);

      AnalysisRequest areq;
      areq.id = tenant_name;
      areq.tree = tree;  // the engine takes its own copy
      areq.kind = kind;
      areq.top_k = top_k;
      areq.pipeline = popts;
      areq.timeout_seconds = deadline_seconds;
      flight = std::make_shared<Flight>();
      flight->future = engine_.submit(std::move(areq)).share();
      flights_.emplace(key, flight);
      leader = true;
    }
  }

  // --- wait for the shared result ---------------------------------------
  AnalysisResult result;
  bool timed_out = false;
  if (!leader && deadline_seconds > 0.0) {
    // Followers observe their own deadline; the flight keeps running for
    // everyone else.
    const double remaining = deadline_seconds - arrival.seconds();
    if (remaining <= 0.0 ||
        flight->future.wait_for(std::chrono::duration<double>(remaining)) !=
            std::future_status::ready) {
      timed_out = true;
    }
  }
  if (!timed_out) result = flight->future.get();

  if (leader) {
    {
      std::lock_guard<std::mutex> lock(flights_mutex_);
      flights_.erase(key);
    }
    outstanding_.fetch_sub(1, std::memory_order_relaxed);
    tenant.outstanding.fetch_sub(1, std::memory_order_relaxed);
    if (result.ok && !result.memoized) {
      observe_service_time(result.seconds);
      anon.engine_solves.fetch_add(1, std::memory_order_relaxed);
      tenant.engine_solves.fetch_add(1, std::memory_order_relaxed);
    }
  } else {
    anon.coalesced.fetch_add(1, std::memory_order_relaxed);
    tenant.coalesced.fetch_add(1, std::memory_order_relaxed);
  }

  // --- render -----------------------------------------------------------
  const auto finish_latency = [&] {
    const double seconds = arrival.seconds();
    anon.latency.record_seconds(seconds);
    tenant.latency.record_seconds(seconds);
    return seconds;
  };

  // Graceful degradation: an MPMCS solve that ends without an optimality
  // proof but carries a feasible incumbent — deadline expiry, or an
  // anytime solver exhausting its bound-encoding budget — answers 200
  // with the incumbent and its certified optimality bound instead of a
  // bare 504/500. Followers that timed out locally (`timed_out`) never
  // fetched the result, so they still 504.
  if (!timed_out && !result.ok && result.error.empty() &&
      kind == AnalysisKind::Mpmcs && result.mpmcs.approximate &&
      !result.mpmcs.cut.empty()) {
    anon.degraded.fetch_add(1, std::memory_order_relaxed);
    tenant.degraded.fetch_add(1, std::memory_order_relaxed);
    anon.ok.fetch_add(1, std::memory_order_relaxed);
    tenant.ok.fetch_add(1, std::memory_order_relaxed);
    std::string body = "{\"ok\": true, \"status\": \"approximate\", ";
    body += "\"tenant\": \"" + util::json_escape(tenant_name) + "\", ";
    body += std::string("\"kind\": \"") +
            analysis_kind_name(result.kind) + "\", ";
    body += "\"seconds\": " + util::format_double(finish_latency()) + ", ";
    body += "\"solution\": " +
            solution_json(result.mpmcs.cut.names(tree), result.mpmcs) + "}";
    HttpResponse r;
    r.body = std::move(body);
    return r;
  }
  if (timed_out || result.cancelled) {
    finish_latency();
    anon.deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
    tenant.deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
    return error_response(504, "deadline_exceeded",
                          cancelled_message(deadline_seconds, "solve"));
  }
  if (!result.ok) {
    finish_latency();
    anon.errors.fetch_add(1, std::memory_order_relaxed);
    tenant.errors.fetch_add(1, std::memory_order_relaxed);
    return error_response(500, "internal",
                          result.error.empty() ? "analysis failed"
                                               : result.error);
  }

  if (result.cache_hit) {
    anon.cache_hits.fetch_add(1, std::memory_order_relaxed);
    tenant.cache_hits.fetch_add(1, std::memory_order_relaxed);
  }
  if (result.memoized) {
    anon.memo_hits.fetch_add(1, std::memory_order_relaxed);
    tenant.memo_hits.fetch_add(1, std::memory_order_relaxed);
  }
  anon.ok.fetch_add(1, std::memory_order_relaxed);
  tenant.ok.fetch_add(1, std::memory_order_relaxed);

  std::string body = "{\"ok\": true, \"status\": \"optimal\", ";
  body += "\"tenant\": \"" + util::json_escape(tenant_name) + "\", ";
  body += std::string("\"kind\": \"") + analysis_kind_name(result.kind) +
          "\", ";
  body += std::string("\"cacheHit\": ") +
          (result.cache_hit ? "true" : "false") + ", ";
  body += std::string("\"memoized\": ") +
          (result.memoized ? "true" : "false") + ", ";
  body += std::string("\"coalesced\": ") + (leader ? "false" : "true") + ", ";
  body += "\"seconds\": " + util::format_double(finish_latency()) + ", ";
  if (kind == AnalysisKind::TopK) {
    body += "\"top\": [";
    for (std::size_t i = 0; i < result.top.size(); ++i) {
      if (i > 0) body += ", ";
      body += solution_json(result.top[i].cut.names(tree), result.top[i]);
    }
    body += "]}";
  } else {
    body += "\"solution\": " +
            solution_json(result.mpmcs.cut.names(tree), result.mpmcs) + "}";
  }
  HttpResponse r;
  r.body = std::move(body);
  return r;
}

std::optional<std::string> SolveService::tree_owner(
    const std::string& id) const {
  std::lock_guard<std::mutex> lock(trees_mutex_);
  const auto it = tree_owners_.find(id);
  if (it == tree_owners_.end()) return std::nullopt;
  return it->second;
}

HttpResponse SolveService::handle_tree_create(const HttpRequest& request) {
  util::Timer arrival;
  TenantCounters& anon = stats_.global();
  anon.requests.fetch_add(1, std::memory_order_relaxed);

  std::string tenant_name = "default";
  ft::FaultTree tree;
  core::PipelineOptions popts = opts_.pipeline;
  try {
    const util::JsonValue doc = util::JsonValue::parse(request.body);
    if (!doc.is_object()) {
      throw util::JsonError(0, "request body must be a JSON object");
    }
    tenant_name = doc.get_string("tenant", "default");
    if (tenant_name.empty() || tenant_name.size() > 128) {
      throw util::JsonError(0, "tenant must be 1..128 bytes");
    }
    const std::string tree_text = doc.get_string("tree", "");
    if (tree_text.empty()) {
      throw util::JsonError(0, "missing required member \"tree\"");
    }
    tree = parse_tree_text(tree_text, doc.get_string("format", "auto"));
    tree.validate();
    const std::string solver = doc.get_string("solver", "");
    if (!solver.empty() && !core::parse_solver_choice(solver, &popts.solver)) {
      throw util::JsonError(0, "unknown solver \"" + solver + "\"");
    }
  } catch (const std::exception& e) {
    anon.bad_requests.fetch_add(1, std::memory_order_relaxed);
    return error_response(400, "bad_request", e.what());
  }

  TenantCounters& tenant = stats_.tenant(tenant_name);
  tenant.requests.fetch_add(1, std::memory_order_relaxed);

  if (draining_.load(std::memory_order_relaxed)) {
    return error_response(503, "shutting_down", "server is draining");
  }

  // Quota and eviction run under the ownership lock; the create itself
  // (an eager engine prepare — the expensive part) runs outside it, so a
  // burst of concurrent creates can overshoot max_trees by at most the
  // number of handler threads before the next create evicts back down.
  {
    std::lock_guard<std::mutex> lock(trees_mutex_);
    std::size_t owned = 0;
    for (const auto& [id, owner] : tree_owners_) {
      if (owner == tenant_name) ++owned;
    }
    if (owned >= opts_.tenant_tree_limit) {
      anon.rejected_quota.fetch_add(1, std::memory_order_relaxed);
      tenant.rejected_quota.fetch_add(1, std::memory_order_relaxed);
      return error_response(429, "over_quota",
                            "tenant \"" + tenant_name + "\" owns " +
                                std::to_string(owned) + " trees (limit " +
                                std::to_string(opts_.tenant_tree_limit) +
                                ")");
    }
    if (opts_.max_trees > 0) {
      while (tree_owners_.size() >= opts_.max_trees) {
        // Evict the least-recently-used resource (engine use tick: every
        // solve/edit/read against a resource bumps it).
        std::string victim;
        std::uint64_t oldest = 0;
        for (const engine::TreeResourceInfo& info : engine_.list_trees()) {
          if (tree_owners_.find(info.id) == tree_owners_.end()) continue;
          if (victim.empty() || info.last_used < oldest) {
            victim = info.id;
            oldest = info.last_used;
          }
        }
        if (victim.empty()) break;
        journal_.record_delete(victim);
        engine_.release_tree(victim);
        tree_owners_.erase(victim);
        trees_evicted_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  std::string id;
  try {
    id = engine_.create_tree(std::move(tree), popts);
  } catch (const std::exception& e) {
    anon.bad_requests.fetch_add(1, std::memory_order_relaxed);
    tenant.bad_requests.fetch_add(1, std::memory_order_relaxed);
    return error_response(400, "bad_request", e.what());
  }
  {
    std::lock_guard<std::mutex> lock(trees_mutex_);
    tree_owners_.emplace(id, tenant_name);
  }
  // Durability before acknowledgement: the 201 promises the resource
  // survives a crash, so the journal append (and its fsync) must land
  // first. On journal failure the create is rolled back — the client
  // sees 503 and retries against a consistent store.
  if (journal_.enabled()) {
    try {
      JournalEntry je;
      je.id = id;
      je.tenant = tenant_name;
      je.solver = core::solver_choice_name(popts.solver);
      je.tree_text = engine_.tree_text(id).value_or("");
      je.version = 1;
      je.edits = 0;
      journal_.record_put(je);
    } catch (const std::exception& e) {
      engine_.release_tree(id);
      {
        std::lock_guard<std::mutex> lock(trees_mutex_);
        tree_owners_.erase(id);
      }
      anon.errors.fetch_add(1, std::memory_order_relaxed);
      tenant.errors.fetch_add(1, std::memory_order_relaxed);
      return error_response(503, "persistence_failed", e.what());
    }
  }
  trees_created_.fetch_add(1, std::memory_order_relaxed);

  const auto info = engine_.tree_info(id);
  anon.ok.fetch_add(1, std::memory_order_relaxed);
  tenant.ok.fetch_add(1, std::memory_order_relaxed);
  const double seconds = arrival.seconds();
  anon.latency.record_seconds(seconds);
  tenant.latency.record_seconds(seconds);

  std::string body = "{\"ok\": true, ";
  body += "\"tenant\": \"" + util::json_escape(tenant_name) + "\", ";
  body += "\"id\": \"" + util::json_escape(id) + "\", ";
  body += "\"etag\": \"" + util::json_escape(make_etag(id, 1)) + "\", ";
  body += "\"version\": 1, ";
  body += "\"events\": " + std::to_string(info ? info->events : 0) + ", ";
  body += "\"nodes\": " + std::to_string(info ? info->nodes : 0) + ", ";
  body += "\"seconds\": " + util::format_double(seconds) + "}";
  HttpResponse r;
  r.status = 201;
  r.body = std::move(body);
  return r;
}

HttpResponse SolveService::handle_tree_list(const HttpRequest& request) {
  std::string parse_error;
  const std::string tenant_name =
      tenant_from_body(request.body, &parse_error);
  if (tenant_name.empty()) {
    stats_.global().bad_requests.fetch_add(1, std::memory_order_relaxed);
    return error_response(400, "bad_request", parse_error);
  }
  std::vector<std::string> ids;
  {
    std::lock_guard<std::mutex> lock(trees_mutex_);
    for (const auto& [id, owner] : tree_owners_) {
      if (owner == tenant_name) ids.push_back(id);
    }
  }
  std::string body = "{\"ok\": true, \"tenant\": \"" +
                     util::json_escape(tenant_name) + "\", \"trees\": [";
  bool sep = false;
  for (const std::string& id : ids) {
    const auto info = engine_.tree_info(id);
    if (!info) continue;  // raced a delete/eviction
    if (sep) body += ", ";
    sep = true;
    body += "{\"id\": \"" + util::json_escape(id) + "\", ";
    body += "\"etag\": \"" +
            util::json_escape(make_etag(id, info->version)) + "\", ";
    body += "\"version\": " + std::to_string(info->version) + ", ";
    body += "\"edits\": " + std::to_string(info->edits) + ", ";
    body += "\"events\": " + std::to_string(info->events) + ", ";
    body += "\"nodes\": " + std::to_string(info->nodes) + "}";
  }
  body += "]}";
  HttpResponse r;
  r.body = std::move(body);
  return r;
}

HttpResponse SolveService::handle_tree_get(const HttpRequest& request,
                                           const std::string& id) {
  std::string parse_error;
  const std::string tenant_name =
      tenant_from_body(request.body, &parse_error);
  if (tenant_name.empty()) {
    stats_.global().bad_requests.fetch_add(1, std::memory_order_relaxed);
    return error_response(400, "bad_request", parse_error);
  }
  const auto owner = tree_owner(id);
  if (!owner || *owner != tenant_name) {
    return error_response(404, "not_found", "unknown tree id \"" + id + "\"");
  }
  const auto info = engine_.tree_info(id);
  const auto text = engine_.tree_text(id);
  if (!info || !text) {
    return error_response(404, "not_found", "unknown tree id \"" + id + "\"");
  }
  std::string body = "{\"ok\": true, ";
  body += "\"tenant\": \"" + util::json_escape(tenant_name) + "\", ";
  body += "\"id\": \"" + util::json_escape(id) + "\", ";
  body += "\"etag\": \"" +
          util::json_escape(make_etag(id, info->version)) + "\", ";
  body += "\"version\": " + std::to_string(info->version) + ", ";
  body += "\"edits\": " + std::to_string(info->edits) + ", ";
  body += "\"events\": " + std::to_string(info->events) + ", ";
  body += "\"nodes\": " + std::to_string(info->nodes) + ", ";
  body += "\"tree\": \"" + util::json_escape(*text) + "\"}";
  HttpResponse r;
  r.body = std::move(body);
  return r;
}

HttpResponse SolveService::handle_tree_delete(const HttpRequest& request,
                                              const std::string& id) {
  std::string parse_error;
  const std::string tenant_name =
      tenant_from_body(request.body, &parse_error);
  if (tenant_name.empty()) {
    stats_.global().bad_requests.fetch_add(1, std::memory_order_relaxed);
    return error_response(400, "bad_request", parse_error);
  }
  {
    std::lock_guard<std::mutex> lock(trees_mutex_);
    const auto it = tree_owners_.find(id);
    if (it == tree_owners_.end() || it->second != tenant_name) {
      return error_response(404, "not_found",
                            "unknown tree id \"" + id + "\"");
    }
  }
  // Journal before the in-memory delete: an acknowledged deletion must
  // not resurrect on restart. Failure leaves the resource intact (503).
  try {
    journal_.record_delete(id);
  } catch (const std::exception& e) {
    return error_response(503, "persistence_failed", e.what());
  }
  {
    std::lock_guard<std::mutex> lock(trees_mutex_);
    tree_owners_.erase(id);
  }
  engine_.release_tree(id);
  std::string body = "{\"ok\": true, \"id\": \"" + util::json_escape(id) +
                     "\", \"deleted\": true}";
  HttpResponse r;
  r.body = std::move(body);
  return r;
}

HttpResponse SolveService::handle_tree_patch(const HttpRequest& request,
                                             const std::string& id) {
  util::Timer arrival;
  TenantCounters& anon = stats_.global();
  anon.requests.fetch_add(1, std::memory_order_relaxed);

  std::string tenant_name = "default";
  std::string etag;
  ft::TreeDelta delta;
  double deadline_seconds = opts_.default_deadline_seconds;
  try {
    const util::JsonValue doc = util::JsonValue::parse(request.body);
    if (!doc.is_object()) {
      throw util::JsonError(0, "request body must be a JSON object");
    }
    tenant_name = doc.get_string("tenant", "default");
    if (tenant_name.empty() || tenant_name.size() > 128) {
      throw util::JsonError(0, "tenant must be 1..128 bytes");
    }
    etag = doc.get_string("etag", "");
    const util::JsonValue* d = doc.find("delta");
    if (d == nullptr) {
      throw util::JsonError(0, "missing required member \"delta\"");
    }
    delta = ft::parse_tree_delta(*d);
    if (delta.empty()) {
      throw util::JsonError(0, "delta must contain at least one op");
    }
    const double deadline_ms = doc.get_number("deadline_ms", -1.0);
    if (deadline_ms >= 0.0) {
      deadline_seconds =
          std::min(deadline_ms / 1e3, opts_.max_deadline_seconds);
    } else if (doc.find("deadline_ms") != nullptr) {
      throw util::JsonError(0, "deadline_ms must be >= 0");
    }
  } catch (const std::exception& e) {
    anon.bad_requests.fetch_add(1, std::memory_order_relaxed);
    return error_response(400, "bad_request", e.what());
  }

  TenantCounters& tenant = stats_.tenant(tenant_name);
  tenant.requests.fetch_add(1, std::memory_order_relaxed);

  const auto owner = tree_owner(id);
  if (!owner || *owner != tenant_name) {
    return error_response(404, "not_found", "unknown tree id \"" + id + "\"");
  }

  // Optimistic concurrency: a client that sends the etag it last saw
  // loses deterministically (409) when any other edit landed in between.
  // Omitting the etag opts out — last-writer-wins.
  if (!etag.empty()) {
    const auto info = engine_.tree_info(id);
    const std::string current =
        info ? make_etag(id, info->version) : std::string();
    if (etag != current) {
      etag_conflicts_.fetch_add(1, std::memory_order_relaxed);
      return error_response(409, "etag_conflict",
                            "etag \"" + etag +
                                "\" does not match current \"" + current +
                                "\"");
    }
  }

  // Cheap semantic pre-validation (unknown targets, type mismatches,
  // invalid result trees) so client mistakes answer 400, not a 500 from
  // deep inside the engine. A concurrent edit can invalidate the check —
  // the engine then reports the failure and we answer 500. Weight-only
  // deltas validate in place under the resource lock (no tree copy —
  // this is the PATCH hot path).
  try {
    engine_.validate_delta(id, delta);
  } catch (const std::exception& e) {
    anon.bad_requests.fetch_add(1, std::memory_order_relaxed);
    tenant.bad_requests.fetch_add(1, std::memory_order_relaxed);
    return error_response(400, "bad_request", e.what());
  }

  // Admission control: same gates as /v1/solve, but NO coalescing —
  // edits are effectful, every one must run.
  if (draining_.load(std::memory_order_relaxed)) {
    return error_response(503, "shutting_down", "server is draining");
  }
  const std::size_t global_depth =
      outstanding_.load(std::memory_order_relaxed);
  if (global_depth >= opts_.global_queue_limit) {
    anon.rejected_capacity.fetch_add(1, std::memory_order_relaxed);
    tenant.rejected_capacity.fetch_add(1, std::memory_order_relaxed);
    return error_response(503, "over_capacity",
                          "global queue is full (" +
                              std::to_string(global_depth) +
                              " outstanding)");
  }
  const auto tenant_depth = static_cast<std::size_t>(
      std::max<std::int64_t>(0, tenant.outstanding.load()));
  if (tenant_depth >= opts_.tenant_queue_limit) {
    anon.rejected_quota.fetch_add(1, std::memory_order_relaxed);
    tenant.rejected_quota.fetch_add(1, std::memory_order_relaxed);
    return error_response(429, "over_quota",
                          "tenant \"" + tenant_name + "\" has " +
                              std::to_string(tenant_depth) +
                              " requests outstanding");
  }
  if (deadline_seconds > 0.0) {
    const double estimated_wait =
        (static_cast<double>(global_depth) /
             static_cast<double>(engine_.num_threads()) +
         1.0) *
        service_estimate();
    if (estimated_wait > deadline_seconds) {
      anon.rejected_deadline.fetch_add(1, std::memory_order_relaxed);
      tenant.rejected_deadline.fetch_add(1, std::memory_order_relaxed);
      return error_response(
          503, "deadline_unmeetable",
          "estimated wait " + util::format_double(estimated_wait) +
              "s exceeds the " + util::format_double(deadline_seconds) +
              "s deadline");
    }
  }

  outstanding_.fetch_add(1, std::memory_order_relaxed);
  tenant.outstanding.fetch_add(1, std::memory_order_relaxed);

  AnalysisRequest areq;
  areq.id = tenant_name;
  areq.tree_id = id;
  areq.delta = std::move(delta);
  areq.kind = AnalysisKind::Mpmcs;
  areq.pipeline = opts_.pipeline;  // the resource's config wins anyway
  areq.timeout_seconds = deadline_seconds;
  AnalysisResult result = engine_.submit(std::move(areq)).get();

  outstanding_.fetch_sub(1, std::memory_order_relaxed);
  tenant.outstanding.fetch_sub(1, std::memory_order_relaxed);
  if (result.ok && !result.memoized) {
    observe_service_time(result.seconds);
    anon.engine_solves.fetch_add(1, std::memory_order_relaxed);
    tenant.engine_solves.fetch_add(1, std::memory_order_relaxed);
  }

  // The edit mutates the resource BEFORE the solve runs, so the post-image
  // must be journaled whenever the delta landed — even if the solve then
  // timed out or failed. Otherwise a restart would revert an edit the
  // client can already observe via GET. Solver omitted: the journal
  // inherits it from the live (create) entry.
  if (result.delta_applied && journal_.enabled()) {
    try {
      JournalEntry je;
      je.id = id;
      je.tenant = tenant_name;
      je.tree_text = engine_.tree_text(id).value_or("");
      je.version = result.tree_version;
      const auto info = engine_.tree_info(id);
      je.edits = info ? info->edits : 0;
      journal_.record_put(je);
    } catch (const std::exception&) {
      // The in-memory edit already happened and cannot be unwound here;
      // surviving journal records still replay cleanly (post-images).
    }
  }

  const auto finish_latency = [&] {
    const double seconds = arrival.seconds();
    anon.latency.record_seconds(seconds);
    tenant.latency.record_seconds(seconds);
    return seconds;
  };

  // Same graceful degradation as /v1/solve: a proof-less re-solve whose
  // incumbent survived (deadline expiry or anytime-budget exhaustion)
  // answers 200-approximate with its certified gap.
  if (!result.ok && result.error.empty() && result.mpmcs.approximate &&
      !result.mpmcs.cut.empty()) {
    anon.degraded.fetch_add(1, std::memory_order_relaxed);
    tenant.degraded.fetch_add(1, std::memory_order_relaxed);
    anon.ok.fetch_add(1, std::memory_order_relaxed);
    tenant.ok.fetch_add(1, std::memory_order_relaxed);
    std::string body = "{\"ok\": true, \"status\": \"approximate\", ";
    body += "\"tenant\": \"" + util::json_escape(tenant_name) + "\", ";
    body += "\"id\": \"" + util::json_escape(id) + "\", ";
    body += "\"etag\": \"" +
            util::json_escape(make_etag(id, result.tree_version)) + "\", ";
    body += "\"version\": " + std::to_string(result.tree_version) + ", ";
    body += std::string("\"deltaApplied\": ") +
            (result.delta_applied ? "true" : "false") + ", ";
    body += "\"delta\": " + delta_application_json(result.delta) + ", ";
    body += "\"seconds\": " + util::format_double(finish_latency()) + ", ";
    body += "\"solution\": " +
            solution_json(result.cut_names, result.mpmcs) + "}";
    HttpResponse r;
    r.body = std::move(body);
    return r;
  }
  if (result.cancelled) {
    finish_latency();
    anon.deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
    tenant.deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
    return error_response(504, "deadline_exceeded",
                          cancelled_message(deadline_seconds, "re-solve"));
  }
  if (!result.ok) {
    finish_latency();
    if (result.error.find("unknown tree id") != std::string::npos) {
      // The resource was deleted/evicted between the ownership check and
      // the engine run.
      return error_response(404, "not_found", result.error);
    }
    anon.errors.fetch_add(1, std::memory_order_relaxed);
    tenant.errors.fetch_add(1, std::memory_order_relaxed);
    return error_response(500, "internal",
                          result.error.empty() ? "analysis failed"
                                               : result.error);
  }

  if (result.memoized) {
    anon.memo_hits.fetch_add(1, std::memory_order_relaxed);
    tenant.memo_hits.fetch_add(1, std::memory_order_relaxed);
  }
  anon.ok.fetch_add(1, std::memory_order_relaxed);
  tenant.ok.fetch_add(1, std::memory_order_relaxed);

  std::string body = "{\"ok\": true, \"status\": \"optimal\", ";
  body += "\"tenant\": \"" + util::json_escape(tenant_name) + "\", ";
  body += "\"id\": \"" + util::json_escape(id) + "\", ";
  body += "\"etag\": \"" +
          util::json_escape(make_etag(id, result.tree_version)) + "\", ";
  body += "\"version\": " + std::to_string(result.tree_version) + ", ";
  body += std::string("\"deltaApplied\": ") +
          (result.delta_applied ? "true" : "false") + ", ";
  body += "\"delta\": " + delta_application_json(result.delta) + ", ";
  body += std::string("\"memoized\": ") +
          (result.memoized ? "true" : "false") + ", ";
  body += "\"seconds\": " + util::format_double(finish_latency()) + ", ";
  body += "\"solution\": " + solution_json(result.cut_names, result.mpmcs) +
          "}";
  HttpResponse r;
  r.body = std::move(body);
  return r;
}

std::string SolveService::statsz_json() {
  const engine::EngineStats es = engine_.stats();
  std::string j = "{\n  \"global\": ";
  j += tenant_json("", stats_.global(), queue_depth());
  j += ",\n  \"engine\": {";
  j += "\"submitted\": " + std::to_string(es.submitted) + ", ";
  j += "\"completed\": " + std::to_string(es.completed) + ", ";
  j += "\"cancelled\": " + std::to_string(es.cancelled) + ", ";
  j += "\"failed\": " + std::to_string(es.failed) + ", ";
  j += "\"cacheHits\": " + std::to_string(es.cache_hits) + ", ";
  j += "\"cacheMisses\": " + std::to_string(es.cache_misses) + ", ";
  j += "\"deltaHits\": " + std::to_string(es.delta_hits) + ", ";
  j += "\"memoHits\": " + std::to_string(es.memo_hits) + ", ";
  j += "\"sessionMemoryBytes\": " + std::to_string(es.session_memory_bytes) +
       ", ";
  j += "\"sessionEvictions\": " + std::to_string(es.session_evictions) + ", ";
  j += "\"poolSteals\": " + std::to_string(es.pool_steals) + ", ";
  j += "\"threads\": " + std::to_string(engine_.num_threads());
  j += "},\n  \"trees\": {";
  j += "\"active\": " + std::to_string(es.trees_active) + ", ";
  j += "\"edits\": " + std::to_string(es.tree_edits) + ", ";
  j += "\"created\": " +
       std::to_string(trees_created_.load(std::memory_order_relaxed)) + ", ";
  j += "\"evicted\": " +
       std::to_string(trees_evicted_.load(std::memory_order_relaxed)) + ", ";
  j += "\"etagConflicts\": " +
       std::to_string(etag_conflicts_.load(std::memory_order_relaxed));
  j += "},\n  \"resilience\": {";
  j += "\"journalEnabled\": " +
       std::string(journal_.enabled() ? "true" : "false") + ", ";
  j += "\"restoredTrees\": " + std::to_string(restored_trees_) + ", ";
  j += "\"journalAppends\": " + std::to_string(journal_.appended_records()) +
       ", ";
  j += "\"journalCompactions\": " + std::to_string(journal_.compactions()) +
       ", ";
  j += "\"journalFsyncs\": " + std::to_string(journal_.fsyncs()) + ", ";
  j += "\"watchdogCancels\": " + std::to_string(es.watchdog_cancels) + ", ";
  j += "\"quarantines\": " + std::to_string(es.quarantines) + ", ";
  j += "\"sessionResets\": " + std::to_string(es.session_resets) + ", ";
  j += "\"failpointsCompiled\": " +
       std::string(util::failpoints_compiled() ? "true" : "false");
  j += "},\n  \"sat\": {";
  // Process-wide SAT effort; escalations counts the Step 5 solves that
  // started race members.
  const sat::GlobalSatCounters sc = sat::Solver::global_counters();
  j += "\"solves\": " + std::to_string(sc.solves) + ", ";
  j += "\"decisions\": " + std::to_string(sc.decisions) + ", ";
  j += "\"propagations\": " + std::to_string(sc.propagations) + ", ";
  j += "\"conflicts\": " + std::to_string(sc.conflicts) + ", ";
  j += "\"escalations\": " +
       std::to_string(core::MpmcsPipeline::escalations());
  j += "},\n  \"tenants\": [";
  bool sep = false;
  for (const std::string& name : stats_.tenant_names()) {
    const TenantCounters* t = stats_.find(name);
    if (t == nullptr) continue;
    j += sep ? ",\n    " : "\n    ";
    sep = true;
    j += tenant_json(
        name, *t,
        static_cast<std::size_t>(std::max<std::int64_t>(
            0, t->outstanding.load(std::memory_order_relaxed))));
  }
  j += "\n  ]\n}\n";
  return j;
}

}  // namespace fta::service
