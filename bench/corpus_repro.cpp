// Corpus reproduction harness: every vendored standard-format instance
// (corpus/) through the full pipeline, with the cross-checks the paper's
// evaluation methodology implies:
//
//   * per-instance optimum, cut set, SAT solve calls, parse + solve wall
//     time (the perf-gate-tracked corpus metrics);
//   * differential sweep: oll / lsu / the default's module pass (named
//     by its alias, stratified) must agree on the scaled optimum;
//   * BDD oracle agreement wherever the tree has <= 24 events;
//   * cross-format twins (same instance in Galileo and Open-PSA) must
//     produce identical scaled optima;
//   * WCNF export -> re-import -> re-solve is an identity on the optimum;
//   * generator scale-up: serialize/parse round-trips at 10^3..10^5
//     events (parse throughput metric) plus a module-pass solve on the
//     3k-event ladder.
//
// Exits non-zero when any check fails, so CI can gate on it directly.
//
// usage: corpus_repro [--json PATH] [corpus-dir]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "bdd/fta_bdd.hpp"
#include "core/pipeline.hpp"
#include "format/format.hpp"
#include "format/galileo.hpp"
#include "format/wcnf_export.hpp"
#include "ft/tree_delta.hpp"
#include "gen/generator.hpp"
#include "maxsat/instance.hpp"
#include "sat/solver.hpp"
#include "util/strings.hpp"

#ifndef FTA_SOURCE_DIR
#define FTA_SOURCE_DIR "."
#endif

namespace {

struct InstanceReport {
  std::string name;
  std::size_t events = 0;
  std::size_t gates = 0;
  double parse_seconds = 0.0;
  double solve_seconds = 0.0;
  std::uint64_t sat_calls = 0;
  fta::maxsat::Weight scaled_cost = 0;
  double probability = 0.0;
  std::string cut;
  bool optimal = false;
  bool differential_ok = true;
  bool bdd_ok = true;       // trivially true when the oracle is skipped
  bool bdd_checked = false;
  bool roundtrip_ok = false;
};

std::string cut_names(const fta::ft::FaultTree& tree,
                      const fta::ft::CutSet& cut) {
  std::vector<std::string> names;
  for (const fta::ft::EventIndex e : cut.events()) {
    names.push_back(tree.event(e).name);
  }
  std::sort(names.begin(), names.end());
  std::string out = "{";
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i > 0) out += ", ";
    out += names[i];
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fta;
  namespace fs = std::filesystem;

  const bench::Args args = bench::parse_args(argc, argv);
  const std::string corpus_dir = args.positional.empty()
                                     ? std::string(FTA_SOURCE_DIR) + "/corpus"
                                     : args.positional[0];

  bench::banner("corpus reproduction: " + corpus_dir);

  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(corpus_dir)) {
    const std::string ext = entry.path().extension().string();
    if (entry.is_regular_file() &&
        (ext == ".dft" || ext == ".ft" || ext == ".xml" || ext == ".opsa")) {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  if (files.empty()) {
    std::fprintf(stderr, "no corpus instances in %s\n", corpus_dir.c_str());
    return 1;
  }

  bench::print_row({"instance", "ev", "cost", "P", "cut", "sat", "ms"},
                   {26, 6, 12, 12, 26, 6, 8});

  std::vector<InstanceReport> reports;
  // stem -> (format name, scaled cost): cross-format twins must agree.
  std::map<std::string, std::vector<std::pair<std::string, maxsat::Weight>>>
      by_stem;
  bool all_optimal = true, differential_ok = true, bdd_ok = true,
       roundtrip_ok = true;
  double total_solve_seconds = 0.0;

  for (const auto& file : files) {
    InstanceReport rep;
    rep.name = file.filename().string();

    std::ifstream in(file);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();

    util::Timer parse_timer;
    ft::FaultTree tree;
    try {
      tree = format::parse_tree(text, {}, file.string());
    } catch (const format::ParseError& e) {
      std::fprintf(stderr, "%s: %s\n", rep.name.c_str(), e.what());
      return 1;
    }
    rep.parse_seconds = parse_timer.seconds();
    rep.events = tree.stats().events;
    rep.gates = tree.stats().gates;

    // Reference solve: the default portfolio configuration.
    const core::MpmcsPipeline pipeline{core::PipelineOptions{}};
    const std::uint64_t calls_before = sat::Solver::global_solve_calls();
    util::Timer solve_timer;
    const core::MpmcsSolution sol = pipeline.solve(tree);
    rep.solve_seconds = solve_timer.seconds();
    rep.sat_calls = sat::Solver::global_solve_calls() - calls_before;
    total_solve_seconds += rep.solve_seconds;
    rep.optimal = sol.status == maxsat::MaxSatStatus::Optimal;
    rep.scaled_cost = sol.scaled_cost;
    rep.probability = sol.probability;
    rep.cut = cut_names(tree, sol.cut);
    all_optimal = all_optimal && rep.optimal;

    // Differential sweep: every single-solver choice must land on the
    // same scaled optimum.
    for (const auto choice :
         {core::SolverChoice::Oll, core::SolverChoice::Lsu,
          core::SolverChoice::Stratified}) {
      core::PipelineOptions opts;
      opts.solver = choice;
      const core::MpmcsSolution alt = core::MpmcsPipeline(opts).solve(tree);
      if (alt.status != maxsat::MaxSatStatus::Optimal ||
          alt.scaled_cost != sol.scaled_cost) {
        rep.differential_ok = false;
        std::fprintf(stderr, "%s: %s disagrees (cost %llu vs %llu)\n",
                     rep.name.c_str(), core::solver_choice_name(choice),
                     static_cast<unsigned long long>(alt.scaled_cost),
                     static_cast<unsigned long long>(sol.scaled_cost));
      }
    }
    differential_ok = differential_ok && rep.differential_ok;

    // BDD oracle (exact, solver-independent) where tractable.
    if (tree.num_events() <= 24) {
      rep.bdd_checked = true;
      bdd::FaultTreeBdd oracle(tree);
      const auto expected = oracle.mpmcs();
      rep.bdd_ok = expected.has_value() &&
                   std::abs(expected->second - sol.probability) <
                       1e-9 * std::max(1.0, expected->second);
      if (!rep.bdd_ok) {
        std::fprintf(stderr, "%s: BDD oracle disagrees (P=%g vs %g)\n",
                     rep.name.c_str(),
                     expected ? expected->second : -1.0, sol.probability);
      }
    }
    bdd_ok = bdd_ok && rep.bdd_ok;

    // WCNF identity: export -> re-import -> stateless re-solve must
    // reproduce the scaled optimum bit for bit.
    {
      const std::string wcnf = format::export_wcnf(tree, pipeline);
      const maxsat::WcnfInstance imported = maxsat::from_wcnf_string(wcnf);
      core::PipelineOptions sopts;
      sopts.solver = core::SolverChoice::Oll;
      sopts.incremental = false;
      const core::MpmcsSolution re =
          core::MpmcsPipeline(sopts).solve_prepared(tree, imported);
      rep.roundtrip_ok = re.status == maxsat::MaxSatStatus::Optimal &&
                         re.scaled_cost == sol.scaled_cost;
      if (!rep.roundtrip_ok) {
        std::fprintf(stderr, "%s: WCNF round-trip cost %llu != %llu\n",
                     rep.name.c_str(),
                     static_cast<unsigned long long>(re.scaled_cost),
                     static_cast<unsigned long long>(sol.scaled_cost));
      }
    }
    roundtrip_ok = roundtrip_ok && rep.roundtrip_ok;

    by_stem[file.stem().string()].emplace_back(
        file.extension().string(), rep.scaled_cost);

    bench::print_row(
        {rep.name, std::to_string(rep.events),
         std::to_string(rep.scaled_cost), bench::fmt(rep.probability),
         rep.cut, std::to_string(rep.sat_calls),
         bench::fmt(rep.solve_seconds * 1e3)},
        {26, 6, 12, 12, 26, 6, 8});
    reports.push_back(std::move(rep));
  }

  // Cross-format twins must agree on the scaled optimum.
  bool cross_format_ok = true;
  for (const auto& [stem, entries] : by_stem) {
    for (std::size_t i = 1; i < entries.size(); ++i) {
      if (entries[i].second != entries[0].second) {
        cross_format_ok = false;
        std::fprintf(stderr,
                     "%s: cross-format mismatch (%s cost %llu vs %s %llu)\n",
                     stem.c_str(), entries[i].first.c_str(),
                     static_cast<unsigned long long>(entries[i].second),
                     entries[0].first.c_str(),
                     static_cast<unsigned long long>(entries[0].second));
      }
    }
  }

  // The paper's Fig. 1 instance anchors the whole table: {x1, x2}, 0.02.
  bool fig1_ok = false;
  for (const auto& rep : reports) {
    if (rep.name.rfind("fps_dsn2020", 0) == 0) {
      fig1_ok = rep.optimal && rep.cut == "{x1, x2}" &&
                std::abs(rep.probability - 0.02) < 1e-12;
      if (!fig1_ok) break;
    }
  }

  // --- generator scale-up: serialize/parse throughput to 10^5 events ---
  bench::banner("scale-up: Galileo serialize/parse round-trip");
  bench::print_row({"events", "write ms", "parse ms", "ev/s", "equal"},
                   {10, 10, 10, 12, 8});
  bool scaleup_ok = true;
  double parse_events_per_second = 0.0;
  for (const std::uint32_t target : {1'000u, 10'000u, 100'000u}) {
    gen::GeneratorOptions gopts;
    gopts.num_events = target;
    gopts.vote_fraction = 0.1;
    gopts.sharing = 0.05;
    const ft::FaultTree big = gen::random_tree(gopts, /*seed=*/2020);
    util::Timer write_timer;
    const std::string text = format::to_galileo(big);
    const double write_seconds = write_timer.seconds();
    util::Timer parse_timer;
    const ft::FaultTree back = format::parse_galileo(text);
    const double parse_seconds = parse_timer.seconds();
    const bool equal = ft::structural_equal(big, back, true);
    scaleup_ok = scaleup_ok && equal;
    parse_events_per_second = target / std::max(parse_seconds, 1e-9);
    bench::print_row({std::to_string(target),
                      bench::fmt(write_seconds * 1e3),
                      bench::fmt(parse_seconds * 1e3),
                      bench::fmt(parse_events_per_second),
                      equal ? "yes" : "NO"},
                     {10, 10, 10, 12, 8});
  }
  // The module pass on a closed-form 3k-event ladder: the scale point
  // where monolithic core-guided search already struggles.
  double ladder_solve_seconds = 0.0;
  bool ladder_ok = false;
  {
    gen::LadderOptions lopts;
    lopts.subsystems = 1000;
    const ft::FaultTree ladder = gen::ladder_tree(lopts, /*seed=*/7);
    core::PipelineOptions opts;
    opts.solver = core::SolverChoice::Stratified;
    util::Timer t;
    const core::MpmcsSolution sol = core::MpmcsPipeline(opts).solve(ladder);
    ladder_solve_seconds = t.seconds();
    ladder_ok = sol.status == maxsat::MaxSatStatus::Optimal;
    std::printf("ladder 3k events: stratified %s in %.1f ms\n",
                ladder_ok ? "optimal" : "FAILED", ladder_solve_seconds * 1e3);
  }

  const bool ok = all_optimal && differential_ok && bdd_ok && roundtrip_ok &&
                  cross_format_ok && fig1_ok && scaleup_ok && ladder_ok;
  std::printf(
      "\nchecks: optimal %s, differential %s, bdd %s, wcnf-roundtrip %s, "
      "cross-format %s, fig1 %s, scale-up %s\n",
      all_optimal ? "ok" : "FAIL", differential_ok ? "ok" : "FAIL",
      bdd_ok ? "ok" : "FAIL", roundtrip_ok ? "ok" : "FAIL",
      cross_format_ok ? "ok" : "FAIL", fig1_ok ? "ok" : "FAIL",
      scaleup_ok && ladder_ok ? "ok" : "FAIL");

  if (!args.json_path.empty()) {
    const double solves_per_second =
        total_solve_seconds > 0.0 ? reports.size() / total_solve_seconds : 0.0;
    std::string json = "{\n  \"bench\": \"corpus_repro\",\n";
    json += "  \"instances\": " + std::to_string(reports.size()) + ",\n";
    json += "  \"corpusSolvesPerSecond\": " +
            util::format_double(solves_per_second) + ",\n";
    json += "  \"parseEventsPerSecond\": " +
            util::format_double(parse_events_per_second) + ",\n";
    json += "  \"ladderSolveMs\": " +
            util::format_double(ladder_solve_seconds * 1e3) + ",\n";
    json += std::string("  \"allOptimal\": ") +
            (all_optimal ? "true" : "false") + ",\n";
    json += std::string("  \"resultsMatch\": ") +
            (differential_ok && bdd_ok ? "true" : "false") + ",\n";
    json += std::string("  \"crossFormatMatch\": ") +
            (cross_format_ok ? "true" : "false") + ",\n";
    json += std::string("  \"roundtripOk\": ") +
            (roundtrip_ok && scaleup_ok ? "true" : "false") + ",\n";
    json += std::string("  \"fig1Reproduced\": ") +
            (fig1_ok ? "true" : "false") + ",\n";
    json += "  \"perInstance\": [";
    for (std::size_t i = 0; i < reports.size(); ++i) {
      const InstanceReport& r = reports[i];
      json += i > 0 ? ",\n    {" : "\n    {";
      json += "\"file\": \"" + util::json_escape(r.name) + "\", ";
      json += "\"events\": " + std::to_string(r.events) + ", ";
      json += "\"gates\": " + std::to_string(r.gates) + ", ";
      json += "\"scaledCost\": " + std::to_string(r.scaled_cost) + ", ";
      json += "\"probability\": " + util::format_double(r.probability) + ", ";
      json += "\"cut\": \"" + util::json_escape(r.cut) + "\", ";
      json += "\"satCalls\": " + std::to_string(r.sat_calls) + ", ";
      json += "\"parseMs\": " + util::format_double(r.parse_seconds * 1e3) +
              ", ";
      json += "\"solveMs\": " + util::format_double(r.solve_seconds * 1e3) +
              ", ";
      json += std::string("\"bddChecked\": ") +
              (r.bdd_checked ? "true" : "false") + "}";
    }
    json += "\n  ]\n}\n";
    bench::write_json(args.json_path, json);
  }
  return ok ? 0 : 1;
}
