#include "engine/analysis_engine.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <thread>
#include <utility>

#include "bdd/fta_bdd.hpp"
#include "ft/parser.hpp"
#include "util/timer.hpp"

namespace fta::engine {

namespace {

/// The floor of a warm re-solve's budget (EngineOptions::
/// warm_reset_multiple).
constexpr double kWarmResetFloorSeconds = 0.05;

}  // namespace

const char* analysis_kind_name(AnalysisKind k) noexcept {
  switch (k) {
    case AnalysisKind::Mpmcs: return "mpmcs";
    case AnalysisKind::TopK: return "top-k";
    case AnalysisKind::Importance: return "importance";
    case AnalysisKind::Quantitative: return "quantitative";
  }
  return "?";
}

AnalysisEngine::AnalysisEngine(EngineOptions opts)
    : opts_(opts),
      cache_(opts.cache_capacity),
      lifetime_(std::make_shared<util::CancelToken>()),
      pool_(opts.num_threads) {
  if (opts_.watchdog_interval_seconds > 0.0) {
    watchdog_ = std::thread([this] { watchdog_loop(); });
  }
}

AnalysisEngine::~AnalysisEngine() {
  if (watchdog_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(watchdog_mutex_);
      watchdog_stop_ = true;
    }
    watchdog_cv_.notify_all();
    watchdog_.join();
  }
}

// --- watchdog ------------------------------------------------------------

/// RAII registration of one running solve with the watchdog. No-op when
/// the watchdog is disabled.
class AnalysisEngine::WatchScope {
 public:
  WatchScope(AnalysisEngine& engine, const util::CancelTokenPtr& token,
             const std::string& tree_id)
      : engine_(engine),
        active_(engine.opts_.watchdog_interval_seconds > 0.0),
        id_(active_ ? engine.watch_begin(token, tree_id) : 0) {}
  ~WatchScope() {
    if (active_) engine_.watch_end(id_);
  }
  WatchScope(const WatchScope&) = delete;
  WatchScope& operator=(const WatchScope&) = delete;

 private:
  AnalysisEngine& engine_;
  bool active_;
  std::uint64_t id_;
};

std::uint64_t AnalysisEngine::watch_begin(const util::CancelTokenPtr& token,
                                          const std::string& tree_id) {
  std::lock_guard<std::mutex> lock(watchdog_mutex_);
  const std::uint64_t id = ++next_watch_id_;
  WatchedSolve w;
  w.token = token;
  w.tree_id = tree_id;
  w.last_progress = token->progress();
  watched_.emplace(id, std::move(w));
  return id;
}

void AnalysisEngine::watch_end(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(watchdog_mutex_);
  watched_.erase(id);
}

void AnalysisEngine::watchdog_loop() {
  const auto interval = std::chrono::duration<double>(
      opts_.watchdog_interval_seconds);
  std::unique_lock<std::mutex> lock(watchdog_mutex_);
  while (!watchdog_stop_) {
    watchdog_cv_.wait_for(lock, interval);
    if (watchdog_stop_) break;
    std::vector<std::string> to_quarantine;
    for (auto& [id, w] : watched_) {
      if (w.cancelled) continue;
      const std::uint64_t p = w.token->progress();
      if (p != w.last_progress) {
        w.last_progress = p;
        w.stalled_scans = 0;
        continue;
      }
      if (++w.stalled_scans < opts_.watchdog_stall_intervals) continue;
      // Frozen across the full stall window: the solve is wedged (or so
      // far regressed it makes no conflicts). Cancel it; if it was a
      // warm resource solve, reset the resource to cold state so the
      // wedge cannot recur from the same session.
      w.token->cancel();
      w.cancelled = true;
      watchdog_cancels_.fetch_add(1, std::memory_order_relaxed);
      if (!w.tree_id.empty()) to_quarantine.push_back(w.tree_id);
    }
    if (!to_quarantine.empty()) {
      // Outside the registry lock ordering concerns: quarantine only
      // touches trees_mutex_ and an atomic flag, never resource mutexes
      // (the wedged solve still holds those).
      lock.unlock();
      for (const std::string& id : to_quarantine) quarantine_tree(id);
      lock.lock();
    }
  }
}

void AnalysisEngine::quarantine_tree(const std::string& id) {
  const std::shared_ptr<TreeResource> res = resource(id);
  if (!res) return;
  if (!res->quarantined.exchange(true, std::memory_order_relaxed)) {
    quarantines_.fetch_add(1, std::memory_order_relaxed);
  }
}

AnalysisTicket AnalysisEngine::analyze(AnalysisRequest request) {
  util::CancelTokenPtr token;
  {
    std::lock_guard<std::mutex> lock(lifetime_mutex_);
    token = util::make_child_token(lifetime_);
  }
  submitted_.fetch_add(1, std::memory_order_relaxed);
  AnalysisTicket ticket;
  ticket.id = request.id;
  ticket.result = pool_.submit(
      [this, request = std::move(request), token = std::move(token)]() mutable {
        return execute(std::move(request), std::move(token));
      });
  return ticket;
}

std::vector<AnalysisResult> AnalysisEngine::run_batch(
    std::vector<AnalysisRequest> requests) {
  std::vector<std::future<AnalysisResult>> futures;
  futures.reserve(requests.size());
  for (auto& request : requests) futures.push_back(submit(std::move(request)));
  std::vector<AnalysisResult> results;
  results.reserve(futures.size());
  for (auto& f : futures) results.push_back(f.get());
  return results;
}

void AnalysisEngine::cancel_all() {
  std::lock_guard<std::mutex> lock(lifetime_mutex_);
  lifetime_->cancel();
  // In-flight and queued requests observe the old token; new submissions
  // start clean under a fresh lifetime.
  lifetime_ = std::make_shared<util::CancelToken>();
}

EngineStats AnalysisEngine::stats() const {
  EngineStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.cancelled = cancelled_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.cache_hits = cache_.hits();
  s.cache_misses = cache_.misses();
  s.memo_hits = memo_hits_.load(std::memory_order_relaxed);
  s.pool_steals = pool_.steals();
  s.session_memory_bytes = cache_.session_memory_bytes();
  s.session_evictions = cache_.session_evictions();
  s.trees_active = num_trees();
  s.tree_edits = tree_edits_.load(std::memory_order_relaxed);
  s.watchdog_cancels = watchdog_cancels_.load(std::memory_order_relaxed);
  s.quarantines = quarantines_.load(std::memory_order_relaxed);
  s.session_resets = session_resets_.load(std::memory_order_relaxed);
  return s;
}

std::string AnalysisEngine::create_tree(ft::FaultTree tree,
                                        core::PipelineOptions pipeline) {
  tree.validate();
  auto res = std::make_shared<TreeResource>();
  res->pipeline = pipeline;
  // Eager prepare: the creation request pays the cold transformation
  // once, so every later edit on the resource is a patch, never a
  // rebuild-in-disguise.
  const core::MpmcsPipeline p(pipeline);
  res->prepared = p.prepare(tree);
  res->events = tree.num_events();
  res->nodes = tree.num_nodes();
  res->tree = std::move(tree);
  res->last_used = use_tick_.fetch_add(1, std::memory_order_relaxed) + 1;
  const std::string id =
      "t" + std::to_string(next_tree_id_.fetch_add(1,
                                                   std::memory_order_relaxed) +
                           1);
  std::lock_guard<std::mutex> lock(trees_mutex_);
  trees_.emplace(id, std::move(res));
  return id;
}

void AnalysisEngine::restore_tree(const std::string& id, ft::FaultTree tree,
                                  core::PipelineOptions pipeline,
                                  std::uint64_t version, std::uint64_t edits) {
  tree.validate();
  auto res = std::make_shared<TreeResource>();
  res->pipeline = pipeline;
  const core::MpmcsPipeline p(pipeline);
  res->prepared = p.prepare(tree);
  res->events = tree.num_events();
  res->nodes = tree.num_nodes();
  res->tree = std::move(tree);
  res->version = version;
  res->edits = edits;
  res->last_used = use_tick_.fetch_add(1, std::memory_order_relaxed) + 1;
  {
    std::lock_guard<std::mutex> lock(trees_mutex_);
    if (!trees_.emplace(id, std::move(res)).second) {
      throw std::invalid_argument("restore_tree: duplicate id '" + id + "'");
    }
  }
  // Keep the id allocator ahead of every restored "tN" id so post-restart
  // creates never collide with recovered resources.
  if (id.size() > 1 && id[0] == 't') {
    std::uint64_t n = 0;
    bool numeric = true;
    for (std::size_t i = 1; i < id.size(); ++i) {
      if (id[i] < '0' || id[i] > '9') {
        numeric = false;
        break;
      }
      n = n * 10 + static_cast<std::uint64_t>(id[i] - '0');
    }
    if (numeric) {
      std::uint64_t cur = next_tree_id_.load(std::memory_order_relaxed);
      while (cur < n &&
             !next_tree_id_.compare_exchange_weak(cur, n,
                                                  std::memory_order_relaxed)) {
      }
    }
  }
}

bool AnalysisEngine::release_tree(const std::string& id) {
  std::lock_guard<std::mutex> lock(trees_mutex_);
  return trees_.erase(id) > 0;
}

std::shared_ptr<AnalysisEngine::TreeResource> AnalysisEngine::resource(
    const std::string& id) const {
  std::lock_guard<std::mutex> lock(trees_mutex_);
  const auto it = trees_.find(id);
  return it == trees_.end() ? nullptr : it->second;
}

std::optional<TreeResourceInfo> AnalysisEngine::tree_info(
    const std::string& id, std::string* text) const {
  const std::shared_ptr<TreeResource> res = resource(id);
  if (!res) return std::nullopt;
  std::unique_lock<std::mutex> lock;
  if (text != nullptr) {
    lock = std::unique_lock<std::mutex>(res->mutex);
    *text = ft::to_text(res->tree);
  }
  TreeResourceInfo info;
  info.id = id;
  info.version = res->version;
  info.edits = res->edits;
  info.events = res->events;
  info.nodes = res->nodes;
  info.last_used = res->last_used;
  return info;
}

std::optional<ft::FaultTree> AnalysisEngine::tree_snapshot(
    const std::string& id) const {
  const std::shared_ptr<TreeResource> res = resource(id);
  if (!res) return std::nullopt;
  std::lock_guard<std::mutex> lock(res->mutex);
  return res->tree;
}

std::vector<TreeResourceInfo> AnalysisEngine::list_trees() const {
  std::vector<std::string> ids;
  {
    std::lock_guard<std::mutex> lock(trees_mutex_);
    ids.reserve(trees_.size());
    for (const auto& [id, res] : trees_) ids.push_back(id);
  }
  std::vector<TreeResourceInfo> out;
  out.reserve(ids.size());
  for (const std::string& id : ids) {
    if (auto info = tree_info(id)) out.push_back(std::move(*info));
  }
  return out;
}

std::size_t AnalysisEngine::num_trees() const {
  std::lock_guard<std::mutex> lock(trees_mutex_);
  return trees_.size();
}

PreparedTreePtr AnalysisEngine::prepared_for(
    const core::MpmcsPipeline& pipeline, const AnalysisRequest& request,
    AnalysisResult& result) {
  const std::string key = structural_key(request.tree, request.pipeline);
  PreparedTreePtr prepared = cache_.find(key);
  if (prepared) {
    result.cache_hit = true;
    return prepared;
  }
  auto built = std::make_shared<PreparedTree>();
  built->prepared = pipeline.prepare(request.tree);
  // If a concurrent miss on the same key inserted first, adopt that
  // entry (keeping its memoized solutions) and drop ours.
  return cache_.insert(key, std::move(built));
}

void AnalysisEngine::run_mpmcs(const AnalysisRequest& request,
                               util::CancelTokenPtr token,
                               AnalysisResult& result) {
  const core::MpmcsPipeline pipeline(request.pipeline);
  if (cache_.capacity() == 0) {
    WatchScope watch(*this, token, "");
    result.mpmcs = pipeline.solve(request.tree, std::move(token));
  } else {
    PreparedTreePtr prepared = prepared_for(pipeline, request, result);
    // Second tier: a solution memoized under the same structure and an
    // outcome-equivalent solver configuration skips Step 5 entirely.
    const std::string memo_key = outcome_key(request.pipeline);
    if (opts_.memoize_results) {
      std::lock_guard<std::mutex> lock(prepared->memo_mutex);
      const auto it = prepared->solutions.find(memo_key);
      if (it != prepared->solutions.end()) {
        result.mpmcs = it->second;
        result.memoized = true;
        result.ok = true;
        memo_hits_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
    }
    {
      WatchScope watch(*this, token, "");
      result.mpmcs = pipeline.solve_prepared(request.tree, prepared->prepared,
                                             token);
    }
    if (opts_.memoize_results &&
        result.mpmcs.status != maxsat::MaxSatStatus::Unknown) {
      std::lock_guard<std::mutex> lock(prepared->memo_mutex);
      prepared->solutions.emplace(memo_key, result.mpmcs);
    }
  }
  result.ok = result.mpmcs.status != maxsat::MaxSatStatus::Unknown;
}

void AnalysisEngine::run_top_k(const AnalysisRequest& request,
                               util::CancelTokenPtr token,
                               AnalysisResult& result) {
  const core::MpmcsPipeline pipeline(request.pipeline);
  maxsat::MaxSatStatus final_status = maxsat::MaxSatStatus::Optimal;
  if (cache_.capacity() == 0) {
    WatchScope watch(*this, token, "");
    result.top =
        pipeline.top_k(request.tree, request.top_k, token, &final_status);
  } else {
    // Enumeration shares the cached Step 1-4/3.5 artefact — and, through
    // it, the warm incremental session — with MPMCS traffic on the same
    // structure instead of re-preparing per request.
    PreparedTreePtr prepared = prepared_for(pipeline, request, result);
    // Third tier: a completed enumeration under the same structure,
    // solver configuration AND k replays with zero solver work. k is
    // part of the key — a k=5 sequence is not a valid k=10 answer, and
    // prefix reuse would return a possibly different tie-breaking order.
    const std::string memo_key =
        outcome_key(request.pipeline) + "|k" + std::to_string(request.top_k);
    if (opts_.memoize_results) {
      std::lock_guard<std::mutex> lock(prepared->memo_mutex);
      const auto it = prepared->topk_solutions.find(memo_key);
      if (it != prepared->topk_solutions.end()) {
        result.top = it->second;
        result.memoized = true;
        result.ok = true;
        memo_hits_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
    }
    {
      WatchScope watch(*this, token, "");
      result.top = pipeline.top_k_prepared(request.tree, prepared->prepared,
                                           request.top_k, token,
                                           &final_status);
    }
    // Memoize only completed enumerations: Optimal (k found) or
    // Unsatisfiable (the tree ran out of MCSs — the list is exhaustive).
    if (opts_.memoize_results &&
        final_status != maxsat::MaxSatStatus::Unknown) {
      std::lock_guard<std::mutex> lock(prepared->memo_mutex);
      prepared->topk_solutions.emplace(memo_key, result.top);
    }
  }
  // Unsatisfiable just means the tree ran out of MCSs; only an Unknown
  // round (cancellation / budget) is a failed request.
  result.ok = final_status != maxsat::MaxSatStatus::Unknown;
}

void AnalysisEngine::run_importance(const ft::FaultTree& tree,
                                    util::CancelTokenPtr token,
                                    AnalysisResult& result) const {
  bdd::FaultTreeBdd analysis(tree);
  const auto mcs = analysis.minimal_cut_sets();
  if (!token->cancelled()) {
    result.importance = analysis::importance_measures(tree, mcs);
    result.ok = true;
  }
}

void AnalysisEngine::run_quantitative(const ft::FaultTree& tree,
                                      AnalysisResult& result) const {
  bdd::FaultTreeBdd analysis(tree);
  result.quantitative.top_probability = analysis.top_probability();
  result.quantitative.mcs_count = analysis.mcs_count();
  const ft::TreeStats ts = tree.stats();
  result.quantitative.events = ts.events;
  result.quantitative.gates = ts.gates;
  result.ok = true;  // the BDD ran to completion
}

void AnalysisEngine::run_resource(const AnalysisRequest& request,
                                  util::CancelTokenPtr token,
                                  AnalysisResult& result) {
  const std::shared_ptr<TreeResource> res = resource(request.tree_id);
  if (!res) {
    result.refusal = Refusal::UnknownTree;
    result.error = "unknown tree id '" + request.tree_id + "'";
    return;
  }
  // Per-resource linearization: edits and solves on one resource are
  // serialized in arrival order (the version sequence is meaningful);
  // requests to different resources run concurrently across the pool.
  std::lock_guard<std::mutex> lock(res->mutex);
  res->last_used = use_tick_.fetch_add(1, std::memory_order_relaxed) + 1;
  result.tree_version = res->version;
  // Optimistic concurrency, judged under the lock the edit takes: of two
  // requests that expect one revision, the second finds it gone.
  if (!request.etag.empty()) {
    const std::string current =
        request.tree_id + "-v" + std::to_string(res->version);
    if (request.etag != current) {
      result.refusal = Refusal::EtagConflict;
      result.error = "etag \"" + request.etag +
                     "\" does not match current \"" + current + "\"";
      return;
    }
  }
  // The resource's pipeline configuration shaped its artefact; a
  // per-request override would silently mismatch the two.
  const core::MpmcsPipeline pipeline(res->pipeline);
  if (res->quarantined.exchange(false, std::memory_order_relaxed)) {
    // The watchdog killed a wedged solve on this resource: drop the warm
    // artefact (and the session it carries) and rebuild cold before
    // touching it again.
    res->prepared = pipeline.prepare(res->tree, token);
    res->fresh_artefact = true;
    session_resets_.fetch_add(1, std::memory_order_relaxed);
  }
  if (request.delta && !request.delta->empty()) {
    // Both forms throw ft::DeltaError on bad edits (a refusal, see
    // execute) with the resource untouched.
    const auto landed = [&] {
      result.tree_version = ++res->version;
      res->edits += request.delta->ops.size();
      res->events = res->tree.num_events();
      res->nodes = res->tree.num_nodes();
      result.delta_applied = true;
      tree_edits_.fetch_add(1, std::memory_order_relaxed);
    };
    if (request.delta->weight_only()) {
      // Weight edits land on the live tree, with no copy: every op is
      // checked before any lands, and none can invalidate the tree.
      ft::apply_weights(res->tree, request.delta->ops);
      landed();
      try {
        result.delta = pipeline.apply_delta(res->tree, *request.delta,
                                            res->prepared, token);
      } catch (...) {
        // The tree changed but its artefact may be half patched: rebuild
        // it cold before the next request.
        if (!res->quarantined.exchange(true, std::memory_order_relaxed)) {
          quarantines_.fetch_add(1, std::memory_order_relaxed);
        }
        throw;
      }
    } else {
      ft::FaultTree next = ft::apply_delta(res->tree, *request.delta);
      result.delta = pipeline.apply_delta(next, *request.delta,
                                          res->prepared, token);
      res->tree = std::move(next);
      landed();
    }
  }
  switch (request.kind) {
    case AnalysisKind::Mpmcs: {
      WatchScope watch(*this, token, request.tree_id);
      const bool fresh = res->fresh_artefact;
      const bool warm_budgeted =
          !fresh && opts_.warm_reset_multiple > 0.0 &&
          res->cold_solve_ewma > 0.0 && res->prepared.has_session();
      if (warm_budgeted) {
        // Self-reset heuristic: give the warm (rebased-session) re-solve
        // a budget of N x the cold estimate. A healthy warm path beats
        // cold by construction; one that regresses past the budget is
        // abandoned — drop the session, rebuild the artefact, and
        // re-descend cold with the remaining request deadline.
        const double budget =
            opts_.warm_reset_multiple *
            std::max(res->cold_solve_ewma, kWarmResetFloorSeconds);
        auto sub = util::make_child_token(token);
        sub->set_deadline_after(budget);
        result.mpmcs = pipeline.solve_prepared(res->tree, res->prepared, sub);
        if (result.mpmcs.status == maxsat::MaxSatStatus::Unknown &&
            !token->cancelled()) {
          res->prepared = pipeline.prepare(res->tree, token);
          session_resets_.fetch_add(1, std::memory_order_relaxed);
          util::Timer cold_timer;
          result.mpmcs =
              pipeline.solve_prepared(res->tree, res->prepared, token);
          res->cold_solve_ewma =
              0.7 * res->cold_solve_ewma + 0.3 * cold_timer.seconds();
          res->fresh_artefact = false;
        }
      } else {
        util::Timer cold_timer;
        result.mpmcs =
            pipeline.solve_prepared(res->tree, res->prepared, token);
        if (fresh && result.mpmcs.status != maxsat::MaxSatStatus::Unknown) {
          // First solve on a fresh artefact: the cold reference estimate.
          res->cold_solve_ewma =
              res->cold_solve_ewma == 0.0
                  ? cold_timer.seconds()
                  : 0.7 * res->cold_solve_ewma + 0.3 * cold_timer.seconds();
          res->fresh_artefact = false;
        }
      }
      result.cut_names = result.mpmcs.cut.names(res->tree);
      result.ok = result.mpmcs.status != maxsat::MaxSatStatus::Unknown;
      break;
    }
    case AnalysisKind::TopK: {
      WatchScope watch(*this, token, request.tree_id);
      maxsat::MaxSatStatus final_status = maxsat::MaxSatStatus::Optimal;
      result.top = pipeline.top_k_prepared(res->tree, res->prepared,
                                           request.top_k, token,
                                           &final_status);
      result.ok = final_status != maxsat::MaxSatStatus::Unknown;
      break;
    }
    case AnalysisKind::Importance:
      run_importance(res->tree, token, result);
      break;
    case AnalysisKind::Quantitative:
      run_quantitative(res->tree, result);
      break;
  }
}

AnalysisResult AnalysisEngine::execute(AnalysisRequest request,
                                       util::CancelTokenPtr token) {
  util::Timer timer;
  AnalysisResult result;
  result.id = request.id;
  result.kind = request.kind;
  result.tree_id = request.tree_id;
  token->set_deadline_after(request.timeout_seconds);
  if (opts_.debug_solve_delay_seconds > 0.0) {
    // Fault injection for the serving tests: hold the worker (and thus
    // the request's in-flight window) for a deterministic interval,
    // while staying responsive to cancellation/deadlines.
    util::Timer delay;
    while (delay.seconds() < opts_.debug_solve_delay_seconds &&
           !token->cancelled()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  try {
    if (!request.tree_id.empty()) {
      if (!token->cancelled()) run_resource(request, token, result);
    } else {
      // Stateless path: an edited inline tree takes the ordinary cache
      // lookup.
      if (request.delta && !request.delta->empty()) {
        request.tree = ft::apply_delta(request.tree, *request.delta);
      }
      request.tree.validate();
      if (!token->cancelled()) {
        switch (request.kind) {
          case AnalysisKind::Mpmcs:
            run_mpmcs(request, token, result);
            break;
          case AnalysisKind::TopK:
            run_top_k(request, token, result);
            break;
          case AnalysisKind::Importance:
            run_importance(request.tree, token, result);
            break;
          case AnalysisKind::Quantitative:
            run_quantitative(request.tree, result);
            break;
        }
      }
    }
  } catch (const ft::DeltaError& e) {
    result.refusal = Refusal::BadDelta;
    result.error = e.what();
  } catch (const std::exception& e) {
    result.ok = false;
    result.error = e.what();
  }
  result.cancelled = !result.ok && result.error.empty() && token->cancelled();
  result.seconds = timer.seconds();
  // Long-running services bound the session pool, not just each session:
  // shed LRU session-carrying cache entries once the pool-wide footprint
  // passes the cap.
  if (opts_.session_memory_cap_bytes > 0) {
    cache_.shed_sessions(opts_.session_memory_cap_bytes);
  }
  if (result.cancelled) {
    cancelled_.fetch_add(1, std::memory_order_relaxed);
  } else if (result.ok) {
    completed_.fetch_add(1, std::memory_order_relaxed);
  } else {
    failed_.fetch_add(1, std::memory_order_relaxed);
  }
  return result;
}

}  // namespace fta::engine
