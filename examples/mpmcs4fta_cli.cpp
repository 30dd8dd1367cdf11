// mpmcs4fta_cli: command-line MPMCS computation, mirroring the paper's
// open-source tool (command line in, JSON out; Fig. 2 of the paper shows
// that JSON rendered in a browser).
//
//   usage: mpmcs4fta_cli [options] <tree.ft>
//          mpmcs4fta_cli [options] --batch <dir>
//     --solver NAME   auto (default: the module pass answers closed-form
//                     gates without search; each module that needs search
//                     runs the session OLL alone, the portfolio race
//                     joining only after 50 ms without an answer)
//                     | portfolio (the paper's race of oll, oll-strat,
//                     fu-malik and lsu from the start) | oll
//                     | fu-malik | lsu | brute | stratified (an alias of
//                     auto)
//     --top K         also report the K most probable MCSs
//     --json PATH     write the JSON result document ('-' for stdout)
//     --dot PATH      write Graphviz with the MPMCS highlighted
//     --wcnf PATH     export the Step-4 Weighted Partial MaxSAT instance
//                     in standard WCNF (for external MaxSAT solvers)
//     --scale S       weight scaling factor (default 1e6)
//     --card-lowering MODE  vote-gate encoding: expand | totalizer | auto
//     --no-preprocess skip the Step 3.5 WCNF simplification
//     --timeout SEC   per-tree wall-clock cap
//     --format F      input format: auto (default) | json | galileo | openpsa
//     --mission-time T  horizon for Galileo `lambda=` basic events
//     --batch DIR     analyse every tree file (*.ft, *.dft, *.xml, *.opsa,
//                     *.json) in DIR concurrently and emit one JSON summary
//     --jobs N        batch worker threads (default: hardware concurrency)
//     --quiet         suppress the human-readable summary
//
//   usage: mpmcs4fta_cli export-wcnf [options] <tree> [--wcnf PATH]
//     Emits the Step 1-4 Weighted Partial MaxSAT instance in standard
//     WCNF with an event-variable map in the comment header, for
//     external MaxSAT solvers ('-' or no --wcnf = stdout).
//
//   usage: mpmcs4fta_cli serve [options]
//     Long-running analysis service (src/service): POST /v1/solve and
//     /v1/topk with the batch JSON schema, the /v1/trees mutable-resource
//     API, GET /v1/healthz and /v1/statsz.
//     --port P        listen port (default 8080; 0 = ephemeral)
//     --bind ADDR     bind address (default 127.0.0.1)
//     --journal-dir DIR  crash-safe /v1/trees persistence (replayed on boot)
//     --no-journal-fsync journal without per-record durability (tests only)
//     --failpoints SPEC  arm fault-injection sites; also honours the
//                        FTA_FAILPOINTS environment variable
//     plus --jobs and every pipeline option above as service defaults.
//
//   usage: mpmcs4fta_cli mutate [options] <tree.ft> --edits <script.json>
//     Replays a JSON edit script against the tree as one mutable engine
//     resource: each step is a TreeDelta (an array of op objects, the
//     PATCH /v1/trees wire form); the tool reports per-edit re-solve
//     latency and how much of the solver artefact survived each edit
//     (weight-only reweighting, session rebases, frontier modules reused
//     vs re-prepared).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "engine/analysis_engine.hpp"
#include "format/format.hpp"
#include "format/wcnf_export.hpp"
#include "ft/dot_writer.hpp"
#include "ft/parser.hpp"
#include "ft/tree_delta.hpp"
#include "service/http_server.hpp"
#include "service/solve_service.hpp"
#include "util/failpoint.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"
#include "util/timer.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [options] <tree.ft>\n"
               "       %s [options] --batch <dir>\n"
               "  --solver NAME   Step 5 solver (default auto):\n"
               "                  auto       module pass: closed-form gates\n"
               "                             without search; each module\n"
               "                             that needs search runs OLL on\n"
               "                             its warm session alone, the\n"
               "                             portfolio race joining after\n"
               "                             50 ms without an answer\n"
               "                  portfolio  the paper's race of oll,\n"
               "                             oll-strat, fu-malik and lsu from\n"
               "                             the start, whole tree\n"
               "                  oll | lsu | fu-malik | brute  one solver,\n"
               "                             whole tree\n"
               "                  stratified  an alias of auto\n"
               "  --top K         report the K most probable MCSs\n"
               "  --json PATH     write JSON result ('-' = stdout)\n"
               "  --dot PATH      write Graphviz with MPMCS highlighted\n"
               "  --scale S       weight scale (default 1e6)\n"
               "  --card-lowering MODE  vote-gate encoding: expand|totalizer|"
               "auto\n"
               "  --no-preprocess skip the Step 3.5 WCNF simplification\n"
               "  --no-incremental stateless solving (no SAT sessions)\n"
               "  --timeout SEC   per-tree time limit\n"
               "  --format F      input format: auto (default) | json |\n"
               "                  galileo | openpsa\n"
               "  --mission-time T  horizon for Galileo lambda= events\n"
               "                  (p = 1 - exp(-lambda*T); default 1)\n"
               "  --batch DIR     analyse every tree file in DIR\n"
               "  --jobs N        batch worker threads\n"
               "  --quiet         no human-readable summary\n"
               "export-wcnf mode: %s export-wcnf [options] <tree> "
               "[--wcnf PATH]\n"
               "  emit the Step 1-4 Weighted Partial MaxSAT instance with an\n"
               "  event-variable map in the comment header ('-' = stdout)\n"
               "serve mode: %s serve [--port P] [--bind ADDR] [options]\n"
               "  long-running HTTP service: POST /v1/solve, POST /v1/topk,\n"
               "  the /v1/trees resource API, GET /v1/healthz, GET /v1/readyz,\n"
               "  GET /v1/statsz\n"
               "  --journal-dir DIR  crash-safe /v1/trees persistence: every\n"
               "                  acknowledged create/patch/delete is journaled\n"
               "                  and replayed on the next boot\n"
               "  --no-journal-fsync  journal without per-record durability\n"
               "  --failpoints SPEC  arm fault-injection sites (also env\n"
               "                  FTA_FAILPOINTS); needs -DMPMCS_FAILPOINTS=ON\n"
               "mutate mode: %s mutate [options] <tree.ft> --edits "
               "<script.json>\n"
               "  replay a JSON edit script (array of TreeDeltas) against\n"
               "  the tree, reporting per-edit re-solve latency + lineage\n",
               argv0, argv0, argv0, argv0, argv0);
  return 2;
}

/// Format selection shared by every mode (--format / --mission-time).
fta::format::ParseOptions g_parse_opts;

fta::ft::FaultTree parse_tree_text(const std::string& text,
                                   const std::string& filename = "") {
  return fta::format::parse_tree(text, g_parse_opts, filename);
}

bool is_tree_file(const std::filesystem::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".ft" || ext == ".dft" || ext == ".xml" || ext == ".opsa" ||
         ext == ".mef" || ext == ".json";
}

std::string cut_to_json_array(const std::vector<std::string>& event_names,
                              const fta::ft::CutSet& cut) {
  std::string out = "[";
  bool sep = false;
  for (const fta::ft::EventIndex e : cut.events()) {
    if (sep) out += ", ";
    out += '"' + fta::util::json_escape(event_names.at(e)) + '"';
    sep = true;
  }
  return out + "]";
}

std::string cut_to_string(const std::vector<std::string>& event_names,
                          const fta::ft::CutSet& cut) {
  std::string out = "{";
  bool sep = false;
  for (const fta::ft::EventIndex e : cut.events()) {
    if (sep) out += ", ";
    out += event_names.at(e);
    sep = true;
  }
  return out + "}";
}

/// Runs --batch mode: every tree file in `dir` through the engine.
int run_batch(const std::string& dir, std::size_t jobs,
              const fta::core::PipelineOptions& opts, std::size_t top_k,
              const std::string& json_path, bool quiet) {
  namespace fs = std::filesystem;
  using namespace fta;

  std::vector<fs::path> files;
  try {
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
      if (entry.is_regular_file() && is_tree_file(entry.path())) {
        files.push_back(entry.path());
      }
    }
    if (ec) throw fs::filesystem_error("cannot read directory", dir, ec);
  } catch (const fs::filesystem_error& e) {
    // Construction *and* iteration can fail (e.g. the directory mutating
    // underneath us); neither should take the process down.
    std::fprintf(stderr, "cannot read directory %s: %s\n", dir.c_str(),
                 e.what());
    return 1;
  }
  if (files.empty()) {
    std::fprintf(stderr,
                 "no tree files (*.ft, *.dft, *.xml, *.opsa, *.json) in %s\n",
                 dir.c_str());
    return 1;
  }
  std::sort(files.begin(), files.end());

  // Parse up front; parse failures become failed results, not a dead batch.
  std::vector<engine::AnalysisRequest> requests;
  std::vector<std::pair<std::string, std::string>> parse_failures;
  std::vector<const ft::FaultTree*> trees_by_request;
  for (const auto& file : files) {
    std::ifstream in(file);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    try {
      engine::AnalysisRequest req;
      req.id = file.filename().string();
      req.tree = parse_tree_text(buffer.str(), file.string());
      req.kind = top_k > 0 ? engine::AnalysisKind::TopK
                           : engine::AnalysisKind::Mpmcs;
      req.top_k = top_k;
      req.pipeline = opts;
      req.timeout_seconds = opts.timeout_seconds;
      requests.push_back(std::move(req));
    } catch (const std::exception& e) {
      parse_failures.emplace_back(file.filename().string(), e.what());
    }
  }
  // The requests own their trees; only the event names are needed for the
  // report below (run_batch preserves submission order).
  std::vector<std::vector<std::string>> event_names;
  event_names.reserve(requests.size());
  for (const auto& req : requests) {
    std::vector<std::string> names;
    names.reserve(req.tree.num_events());
    for (ft::EventIndex e = 0; e < req.tree.num_events(); ++e) {
      names.push_back(req.tree.event(e).name);
    }
    event_names.push_back(std::move(names));
  }

  engine::EngineOptions eopts;
  eopts.num_threads = jobs;
  engine::AnalysisEngine eng(eopts);

  util::Timer wall;
  const auto results = eng.run_batch(std::move(requests));
  const double seconds = wall.seconds();
  const engine::EngineStats stats = eng.stats();

  std::size_t ok = 0, cancelled = 0, failed = parse_failures.size();
  for (const auto& r : results) {
    if (r.ok) ++ok;
    else if (r.cancelled) ++cancelled;
    else ++failed;
  }

  if (!quiet) {
    std::printf("batch     : %s (%zu trees, %zu jobs)\n", dir.c_str(),
                results.size() + parse_failures.size(), eng.num_threads());
    std::printf("ok        : %zu  (cancelled %zu, failed %zu)\n", ok,
                cancelled, failed);
    std::printf("cache     : %llu hits / %llu misses\n",
                static_cast<unsigned long long>(stats.cache_hits),
                static_cast<unsigned long long>(stats.cache_misses));
    std::printf("throughput: %.1f trees/s  (%.2f s wall)\n",
                seconds > 0.0 ? results.size() / seconds : 0.0, seconds);
    for (std::size_t i = 0; i < results.size(); ++i) {
      const engine::AnalysisResult& r = results[i];
      if (!r.ok) {
        std::printf("  %-28s %s\n", r.id.c_str(),
                    r.cancelled ? "[cancelled]" : r.error.c_str());
        continue;
      }
      if (r.kind == engine::AnalysisKind::TopK && r.top.empty()) {
        std::printf("  %-28s no minimal cut sets\n", r.id.c_str());
        continue;
      }
      const core::MpmcsSolution& sol =
          r.kind == engine::AnalysisKind::TopK ? r.top.front() : r.mpmcs;
      std::printf("  %-28s P = %-12g %s%s\n", r.id.c_str(), sol.probability,
                  cut_to_string(event_names[i], sol.cut).c_str(),
                  r.cache_hit ? "  [cached]" : "");
    }
    for (const auto& [file, error] : parse_failures) {
      std::printf("  %-28s parse error: %s\n", file.c_str(), error.c_str());
    }
  }

  if (!json_path.empty()) {
    std::string json = "{\n  \"batch\": {\n";
    json += "    \"directory\": \"" + util::json_escape(dir) + "\",\n";
    json += "    \"jobs\": " + std::to_string(eng.num_threads()) + ",\n";
    json += "    \"trees\": " +
            std::to_string(results.size() + parse_failures.size()) + ",\n";
    json += "    \"ok\": " + std::to_string(ok) + ",\n";
    json += "    \"cancelled\": " + std::to_string(cancelled) + ",\n";
    json += "    \"failed\": " + std::to_string(failed) + ",\n";
    json += "    \"cacheHits\": " + std::to_string(stats.cache_hits) + ",\n";
    json += "    \"seconds\": " + util::format_double(seconds) + ",\n";
    json += "    \"treesPerSecond\": " +
            util::format_double(seconds > 0.0 ? results.size() / seconds
                                              : 0.0) +
            "\n  },\n  \"results\": [";
    bool sep = false;
    for (std::size_t i = 0; i < results.size(); ++i) {
      const engine::AnalysisResult& r = results[i];
      json += sep ? ",\n    {" : "\n    {";
      sep = true;
      json += "\"file\": \"" + util::json_escape(r.id) + "\", ";
      json += std::string("\"ok\": ") + (r.ok ? "true" : "false") + ", ";
      if (!r.ok) {
        json += r.cancelled
                    ? std::string("\"cancelled\": true}")
                    : "\"error\": \"" + util::json_escape(r.error) + "\"}";
        continue;
      }
      json += std::string("\"cacheHit\": ") +
              (r.cache_hit ? "true" : "false") + ", ";
      json += std::string("\"memoized\": ") +
              (r.memoized ? "true" : "false") + ", ";
      json += "\"seconds\": " + util::format_double(r.seconds) + ", ";
      // Solver-member attribution: which portfolio member produced the
      // winning model and from which instance (lineage pre / raw /
      // strata). Memoized repeats replay the stored solution, so the
      // attribution is stable across identical requests.
      const auto solution_json = [&](const core::MpmcsSolution& sol) {
        return "{\"probability\": " + util::json_number(sol.probability) +
               ", \"logCost\": " + util::json_number(sol.log_cost) +
               ", \"solver\": \"" + util::json_escape(sol.solver_name) +
               "\", \"lineage\": \"" + util::json_escape(sol.lineage) +
               "\", \"satDecisions\": " + std::to_string(sol.sat_decisions) +
               ", \"satPropagations\": " +
               std::to_string(sol.sat_propagations) +
               ", \"satConflicts\": " + std::to_string(sol.sat_conflicts) +
               ", \"mpmcs\": " + cut_to_json_array(event_names[i], sol.cut) +
               "}";
      };
      if (r.kind == engine::AnalysisKind::TopK) {
        json += "\"top\": [";
        for (std::size_t k = 0; k < r.top.size(); ++k) {
          if (k > 0) json += ", ";
          json += solution_json(r.top[k]);
        }
        json += "]}";
      } else {
        json += "\"solution\": " + solution_json(r.mpmcs) + "}";
      }
    }
    for (const auto& [file, error] : parse_failures) {
      json += sep ? ",\n    {" : "\n    {";
      sep = true;
      json += "\"file\": \"" + util::json_escape(file) +
              "\", \"ok\": false, \"error\": \"" + util::json_escape(error) +
              "\"}";
    }
    json += "\n  ]\n}\n";
    if (json_path == "-") {
      std::fputs(json.c_str(), stdout);
    } else {
      std::ofstream out(json_path);
      out << json;
      if (!quiet) std::printf("JSON      : %s\n", json_path.c_str());
    }
  }
  // Any tree that could not be parsed or solved sinks the exit status —
  // timeouts/cancellations included — so CI and scripts can gate on the
  // batch without grepping the JSON summary.
  return failed == 0 && cancelled == 0 ? 0 : 1;
}

/// One human-readable tag per edit describing what the patch path did.
std::string lineage_tag(const fta::engine::AnalysisResult& r) {
  if (!r.delta_applied) return "no-delta";
  const fta::core::DeltaApplication& d = r.delta;
  if (d.reprepared) return "re-prepared";
  std::string tag = d.weight_only ? "weight-only" : "structural";
  if (d.session_rebased) tag += ", session rebased";
  if (d.strata_total > 0) {
    tag += ", strata " + std::to_string(d.strata_reused) + "r/" +
           std::to_string(d.strata_reweighted) + "w/" +
           std::to_string(d.strata_reprepared) + "p of " +
           std::to_string(d.strata_total);
  }
  return tag;
}

/// Runs `mutate` mode: replays the edit script against the tree held as
/// one mutable engine resource, measuring each re-solve.
int run_mutate(const std::string& tree_path, const std::string& edits_path,
               std::size_t jobs, const fta::core::PipelineOptions& opts,
               const std::string& json_path, bool quiet) {
  using namespace fta;

  std::ifstream in(tree_path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", tree_path.c_str());
    return 1;
  }
  ft::FaultTree tree;
  try {
    std::ostringstream buffer;
    buffer << in.rdbuf();
    tree = parse_tree_text(buffer.str(), tree_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", tree_path.c_str(), e.what());
    return 1;
  }

  std::ifstream edits_in(edits_path);
  if (!edits_in) {
    std::fprintf(stderr, "cannot open %s\n", edits_path.c_str());
    return 1;
  }
  std::vector<ft::TreeDelta> steps;
  try {
    std::ostringstream buffer;
    buffer << edits_in.rdbuf();
    const util::JsonValue doc = util::JsonValue::parse(buffer.str());
    if (!doc.is_array()) {
      throw std::runtime_error(
          "edit script must be a JSON array of deltas "
          "(each itself an array of op objects)");
    }
    for (const util::JsonValue& step : doc.items()) {
      steps.push_back(ft::parse_tree_delta(step));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", edits_path.c_str(), e.what());
    return 1;
  }

  engine::EngineOptions eopts;
  eopts.num_threads = jobs;
  engine::AnalysisEngine eng(eopts);

  util::Timer prepare_timer;
  std::string id;
  try {
    id = eng.create_tree(tree, opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", tree_path.c_str(), e.what());
    return 1;
  }
  const double prepare_seconds = prepare_timer.seconds();

  const auto solve_once = [&](std::optional<ft::TreeDelta> delta) {
    engine::AnalysisRequest req;
    req.id = tree_path;
    req.tree_id = id;
    req.kind = engine::AnalysisKind::Mpmcs;
    req.pipeline = opts;
    req.timeout_seconds = opts.timeout_seconds;
    req.delta = std::move(delta);
    return eng.submit(std::move(req)).get();
  };
  const auto names_now = [&] {
    std::vector<std::string> names;
    if (const auto snap = eng.tree_snapshot(id)) {
      names.reserve(snap->num_events());
      for (ft::EventIndex e = 0; e < snap->num_events(); ++e) {
        names.push_back(snap->event(e).name);
      }
    }
    return names;
  };

  util::Timer initial_timer;
  const engine::AnalysisResult initial = solve_once(std::nullopt);
  const double initial_seconds = initial_timer.seconds();
  if (!initial.ok) {
    std::fprintf(stderr, "initial solve failed: %s\n",
                 initial.cancelled ? "cancelled" : initial.error.c_str());
    return 1;
  }

  struct StepOutcome {
    double seconds = 0.0;
    engine::AnalysisResult result;
    std::vector<std::string> names;
  };
  std::vector<StepOutcome> outcomes;
  outcomes.reserve(steps.size());
  std::size_t failed = 0;
  for (ft::TreeDelta& step : steps) {
    StepOutcome o;
    util::Timer timer;
    o.result = solve_once(std::move(step));
    o.seconds = timer.seconds();
    o.names = names_now();
    if (!o.result.ok) ++failed;
    outcomes.push_back(std::move(o));
  }

  if (!quiet) {
    std::printf("tree      : %s (%zu events, %zu gates)\n", tree_path.c_str(),
                tree.stats().events, tree.stats().gates);
    std::printf("resource  : %s  (prepare %.2f ms, initial solve %.2f ms)\n",
                id.c_str(), prepare_seconds * 1e3, initial_seconds * 1e3);
    std::printf("edits     : %zu steps from %s\n", steps.size(),
                edits_path.c_str());
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      const StepOutcome& o = outcomes[i];
      if (!o.result.ok) {
        std::printf("  edit %-3zu %7.2f ms  FAILED: %s\n", i + 1,
                    o.seconds * 1e3,
                    o.result.cancelled ? "cancelled" : o.result.error.c_str());
        continue;
      }
      std::printf("  edit %-3zu %7.2f ms  [%s]  P = %-12g %s\n", i + 1,
                  o.seconds * 1e3, lineage_tag(o.result).c_str(),
                  o.result.mpmcs.probability,
                  cut_to_string(o.names, o.result.mpmcs.cut).c_str());
    }
  }

  if (!json_path.empty()) {
    const auto solution_json = [](const std::vector<std::string>& names,
                                  const core::MpmcsSolution& sol) {
      return "{\"probability\": " + util::json_number(sol.probability) +
             ", \"logCost\": " + util::json_number(sol.log_cost) +
             ", \"solver\": \"" + util::json_escape(sol.solver_name) +
             "\", \"lineage\": \"" + util::json_escape(sol.lineage) +
             "\", \"mpmcs\": " + cut_to_json_array(names, sol.cut) + "}";
    };
    std::vector<std::string> initial_names;
    initial_names.reserve(tree.num_events());
    for (ft::EventIndex e = 0; e < tree.num_events(); ++e) {
      initial_names.push_back(tree.event(e).name);
    }
    std::string json = "{\n  \"mutate\": {\n";
    json += "    \"tree\": \"" + util::json_escape(tree_path) + "\",\n";
    json += "    \"edits\": " + std::to_string(steps.size()) + ",\n";
    json += "    \"failed\": " + std::to_string(failed) + ",\n";
    json += "    \"prepareSeconds\": " + util::format_double(prepare_seconds) +
            ",\n";
    json += "    \"initialSolveSeconds\": " +
            util::format_double(initial_seconds) + "\n  },\n";
    json += "  \"initial\": " +
            solution_json(initial_names, initial.mpmcs) + ",\n";
    json += "  \"steps\": [";
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      const StepOutcome& o = outcomes[i];
      json += i > 0 ? ",\n    {" : "\n    {";
      json += "\"index\": " + std::to_string(i + 1) + ", ";
      json += "\"seconds\": " + util::format_double(o.seconds) + ", ";
      json += std::string("\"ok\": ") + (o.result.ok ? "true" : "false");
      if (!o.result.ok) {
        json += ", \"error\": \"" +
                util::json_escape(o.result.cancelled ? "cancelled"
                                                     : o.result.error) +
                "\"}";
        continue;
      }
      const core::DeltaApplication& d = o.result.delta;
      json += ", \"version\": " + std::to_string(o.result.tree_version);
      json += std::string(", \"deltaApplied\": ") +
              (o.result.delta_applied ? "true" : "false");
      json += std::string(", \"weightOnly\": ") +
              (d.weight_only ? "true" : "false");
      json += std::string(", \"sessionRebased\": ") +
              (d.session_rebased ? "true" : "false");
      json += std::string(", \"reprepared\": ") +
              (d.reprepared ? "true" : "false");
      json += ", \"strataTotal\": " + std::to_string(d.strata_total);
      json += ", \"strataReused\": " + std::to_string(d.strata_reused);
      json += ", \"strataReweighted\": " +
              std::to_string(d.strata_reweighted);
      json += ", \"strataReprepared\": " +
              std::to_string(d.strata_reprepared);
      json += ", \"solution\": " + solution_json(o.names, o.result.mpmcs);
      json += "}";
    }
    json += "\n  ]\n}\n";
    if (json_path == "-") {
      std::fputs(json.c_str(), stdout);
    } else {
      std::ofstream out(json_path);
      out << json;
      if (!quiet) std::printf("JSON      : %s\n", json_path.c_str());
    }
  }
  return failed == 0 ? 0 : 1;
}

std::atomic<bool> g_stop_requested{false};

void handle_stop_signal(int) { g_stop_requested.store(true); }

/// Runs `serve` mode until SIGINT/SIGTERM, then drains gracefully.
int run_serve(const std::string& bind_address, std::uint16_t port,
              std::size_t jobs, const fta::core::PipelineOptions& opts,
              const std::string& journal_dir, bool journal_fsync,
              bool quiet) {
  using namespace fta;
  service::ServiceOptions sopts;
  sopts.engine_threads = jobs;
  sopts.pipeline = opts;
  sopts.journal_dir = journal_dir;
  sopts.journal_fsync = journal_fsync;
  service::SolveService svc(sopts);

  service::HttpServerOptions hopts;
  hopts.bind_address = bind_address;
  hopts.port = port;
  std::unique_ptr<service::HttpServer> server;
  try {
    server = std::make_unique<service::HttpServer>(
        hopts, [&svc](const service::HttpRequest& request) {
          return svc.handle(request);
        });
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cannot start server: %s\n", e.what());
    return 1;
  }

  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
  if (!quiet) {
    std::printf("serving   : http://%s:%u (threads %zu)\n",
                bind_address.c_str(), server->port(),
                svc.engine().num_threads());
    if (!journal_dir.empty()) {
      std::printf("journal   : %s (fsync %s)\n", journal_dir.c_str(),
                  journal_fsync ? "on" : "off");
    }
    std::fflush(stdout);
  }
  while (!g_stop_requested.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  // Drain order matters: refuse new solves first, then let the HTTP layer
  // finish in-flight exchanges before sockets close.
  svc.begin_shutdown();
  server->shutdown();
  if (!quiet) {
    std::printf("final stats:\n%s", svc.statsz_json().c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fta;

  core::PipelineOptions opts;
  std::string tree_path;
  std::string batch_dir;
  std::string json_path;
  std::string dot_path;
  std::string wcnf_path;
  std::string edits_path;
  std::size_t top_k = 0;
  std::size_t jobs = 0;
  bool quiet = false;
  bool serve_mode = false;
  bool mutate_mode = false;
  bool export_mode = false;
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 8080;
  std::string journal_dir;
  bool journal_fsync = true;
  std::string failpoints_spec;
  if (const char* env = std::getenv("FTA_FAILPOINTS")) {
    failpoints_spec = env;
  }

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--solver") {
      const std::string name = next();
      if (!core::parse_solver_choice(name, &opts.solver)) {
        std::fprintf(stderr, "unknown solver \"%s\"\n", name.c_str());
        return usage(argv[0]);
      }
    } else if (arg == "--top") {
      top_k = static_cast<std::size_t>(std::strtoull(next(), nullptr, 10));
    } else if (arg == "--json") {
      json_path = next();
    } else if (arg == "--dot") {
      dot_path = next();
    } else if (arg == "--wcnf") {
      wcnf_path = next();
    } else if (arg == "--scale") {
      opts.weight_scale = std::strtod(next(), nullptr);
    } else if (arg == "--card-lowering") {
      const std::string mode = next();
      if (mode == "expand") {
        opts.card_lowering = logic::CardinalityLowering::Expand;
      } else if (mode == "totalizer") {
        opts.card_lowering = logic::CardinalityLowering::Totalizer;
      } else if (mode == "auto") {
        opts.card_lowering = logic::CardinalityLowering::Auto;
      } else {
        return usage(argv[0]);
      }
    } else if (arg == "--no-preprocess") {
      opts.preprocess = false;
    } else if (arg == "--no-incremental") {
      opts.incremental = false;
    } else if (arg == "--timeout") {
      opts.timeout_seconds = std::strtod(next(), nullptr);
    } else if (arg == "--batch") {
      batch_dir = next();
    } else if (arg == "--jobs") {
      jobs = static_cast<std::size_t>(std::strtoull(next(), nullptr, 10));
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--port") {
      port = static_cast<std::uint16_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--bind") {
      bind_address = next();
    } else if (arg == "--journal-dir") {
      journal_dir = next();
    } else if (arg == "--no-journal-fsync") {
      journal_fsync = false;
    } else if (arg == "--failpoints") {
      // CLI overrides the FTA_FAILPOINTS environment variable.
      failpoints_spec = next();
    } else if (arg == "--edits") {
      edits_path = next();
    } else if (arg == "--format") {
      if (!fta::format::parse_format_name(next(), &g_parse_opts.format)) {
        std::fprintf(stderr,
                     "--format must be auto, json, galileo, or openpsa\n");
        return 2;
      }
    } else if (arg == "--mission-time") {
      g_parse_opts.mission_time = std::strtod(next(), nullptr);
      if (!(g_parse_opts.mission_time > 0)) {
        std::fprintf(stderr, "--mission-time must be positive\n");
        return 2;
      }
    } else if (arg == "serve" && tree_path.empty() && !mutate_mode &&
               !export_mode) {
      serve_mode = true;
    } else if (arg == "mutate" && tree_path.empty() && !serve_mode &&
               !export_mode) {
      mutate_mode = true;
    } else if (arg == "export-wcnf" && tree_path.empty() && !serve_mode &&
               !mutate_mode) {
      export_mode = true;
    } else if (arg == "--help" || arg == "-h") {
      return usage(argv[0]);
    } else if (!arg.empty() && arg[0] == '-') {
      return usage(argv[0]);
    } else {
      tree_path = arg;
    }
  }
  if (!failpoints_spec.empty()) {
    try {
      util::configure_failpoints(failpoints_spec);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bad failpoint spec: %s\n", e.what());
      return 2;
    }
  }
  if (serve_mode) {
    if (!tree_path.empty() || !batch_dir.empty()) return usage(argv[0]);
    return run_serve(bind_address, port, jobs, opts, journal_dir,
                     journal_fsync, quiet);
  }
  if (mutate_mode) {
    if (tree_path.empty() || edits_path.empty() || !batch_dir.empty()) {
      return usage(argv[0]);
    }
    return run_mutate(tree_path, edits_path, jobs, opts, json_path, quiet);
  }
  if (!edits_path.empty()) {
    std::fprintf(stderr, "--edits requires the mutate subcommand\n");
    return 2;
  }
  if (export_mode && (tree_path.empty() || !batch_dir.empty())) {
    return usage(argv[0]);
  }
  if (!batch_dir.empty()) {
    if (!tree_path.empty()) return usage(argv[0]);
    if (!dot_path.empty() || !wcnf_path.empty()) {
      std::fprintf(stderr, "--dot/--wcnf are single-tree options and do not "
                           "combine with --batch\n");
      return 2;
    }
    return run_batch(batch_dir, jobs, opts, top_k, json_path, quiet);
  }
  if (tree_path.empty()) return usage(argv[0]);

  std::ifstream in(tree_path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", tree_path.c_str());
    return 1;
  }

  ft::FaultTree tree;
  try {
    std::ostringstream buffer;
    buffer << in.rdbuf();
    tree = parse_tree_text(buffer.str(), tree_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", tree_path.c_str(), e.what());
    return 1;
  }

  if (export_mode) {
    const std::string wcnf = format::export_wcnf(tree, opts);
    if (wcnf_path.empty() || wcnf_path == "-") {
      std::fputs(wcnf.c_str(), stdout);
    } else {
      std::ofstream out(wcnf_path);
      out << wcnf;
      if (!quiet) std::printf("WCNF      : %s\n", wcnf_path.c_str());
    }
    return 0;
  }

  const core::MpmcsPipeline pipeline(opts);
  const core::MpmcsSolution sol = pipeline.solve(tree);
  if (sol.status != maxsat::MaxSatStatus::Optimal) {
    std::fprintf(stderr, "no optimal solution (status %d)\n",
                 static_cast<int>(sol.status));
    return 1;
  }

  if (!quiet) {
    std::printf("tree      : %s (%zu events, %zu gates)\n", tree_path.c_str(),
                tree.stats().events, tree.stats().gates);
    std::printf("MPMCS     : %s\n", sol.cut.to_string(tree).c_str());
    std::printf("P(MPMCS)  : %g\n", sol.probability);
    std::printf("solver    : %s  [%s]  (%.2f ms)\n", sol.solver_name.c_str(),
                sol.lineage.c_str(), sol.solve_seconds * 1e3);
    if (top_k > 0) {
      std::printf("top %zu MCSs:\n", top_k);
      for (const auto& s : pipeline.top_k(tree, top_k)) {
        std::printf("  P = %-10g %s\n", s.probability,
                    s.cut.to_string(tree).c_str());
      }
    }
  }

  if (!json_path.empty()) {
    const std::string json = core::MpmcsPipeline::to_json(tree, sol);
    if (json_path == "-") {
      std::fputs(json.c_str(), stdout);
    } else {
      std::ofstream out(json_path);
      out << json;
      if (!quiet) std::printf("JSON      : %s\n", json_path.c_str());
    }
  }
  if (!dot_path.empty()) {
    std::ofstream out(dot_path);
    out << ft::to_dot(tree, sol.cut);
    if (!quiet) std::printf("DOT       : %s\n", dot_path.c_str());
  }
  if (!wcnf_path.empty()) {
    std::ofstream out(wcnf_path);
    out << format::export_wcnf(tree, pipeline);
    if (!quiet) std::printf("WCNF      : %s\n", wcnf_path.c_str());
  }
  return 0;
}
