// Ablation: the default's module pass on repeated-subsystem ("ladder")
// corpora vs equal-size random DAGs.
//
// ROADMAP "Ladder-shaped optimization hardness": monolithic core-guided
// search solves 2-of-3 ladders ~50x slower than equal-size DAGs — every
// unsat core spans all subsystems and the near-equal weights fragment
// into long core chains. The module pass (maxsat/stratified) composes a
// ladder's closed-form gates from the events' weights alone, so ladder
// cost collapses to one linear walk with no SAT call.
//
// Two configurations over the same deterministic corpus:
//   * mono   — monolithic OLL (the PR 4 baseline behaviour),
//   * strat  — SolverChoice::Stratified, the default's module pass.
// For each tree: one end-to-end solve (prepare + solve, the cold path),
// `repeats` warm re-solves on the prepared artefact, and a top-k run.
// Both configurations must produce bit-identical optimal probabilities
// and top-k cost sequences; ladders additionally cross-check against the
// exact BDD engine.
//
// usage: ablation_stratified [repeats] [--json PATH]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bdd/fta_bdd.hpp"
#include "bench_util.hpp"
#include "core/pipeline.hpp"
#include "ft/cut_set.hpp"
#include "gen/generator.hpp"
#include "util/strings.hpp"
#include "util/timer.hpp"

namespace {

struct Member {
  std::string label;
  bool ladder;
  fta::ft::FaultTree tree;
};

std::vector<Member> build_corpus() {
  using namespace fta;
  std::vector<Member> corpus;
  for (const std::uint32_t subsystems : {40u, 80u, 160u}) {
    corpus.push_back({"ladder-" + std::to_string(subsystems), true,
                      gen::ladder_tree(subsystems, 0xE110 + subsystems)});
  }
  {
    // Structured members: each subsystem is a non-trivial module whose
    // stratum really runs a MaxSAT sub-solve.
    gen::LadderOptions lo;
    lo.subsystems = 24;
    lo.nested = true;
    corpus.push_back({"ladder-24-nested", true,
                      gen::ladder_tree(lo, 0xE1F0)});
  }
  for (const std::uint32_t events : {60u, 120u, 240u}) {
    gen::GeneratorOptions g;
    g.num_events = events;
    g.vote_fraction = 0.1;
    g.sharing = 0.2;
    corpus.push_back({"dag-" + std::to_string(events), false,
                      gen::random_tree(g, 0xDA6 + events)});
  }
  return corpus;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fta;

  const bench::Args args = bench::parse_args(argc, argv);
  const std::size_t repeats =
      args.positional.empty()
          ? 8
          : static_cast<std::size_t>(std::atoi(args.positional[0]));
  const std::size_t top_k = 5;

  core::PipelineOptions mono;
  mono.solver = core::SolverChoice::Oll;  // deterministic, single-thread
  core::PipelineOptions strat = mono;
  strat.solver = core::SolverChoice::Stratified;

  struct Config {
    std::string label;
    const core::PipelineOptions* opts;
  };
  const std::vector<Config> configs = {{"mono", &mono}, {"strat", &strat}};

  const std::vector<Member> corpus = build_corpus();

  bench::banner("ablation: stratified module solving vs monolithic OLL");
  std::printf("model: 1 end-to-end + %zu warm solves + top-%zu per config\n\n",
              repeats, top_k);
  bench::print_row({"tree", "e2e mono ms", "e2e strat ms", "e2e x",
                    "warm mono ms", "warm strat ms", "warm x", "topk x"},
                   {18, 12, 13, 8, 13, 14, 8, 8});

  struct PerTree {
    double e2e_ms[2] = {0, 0};
    double warm_ms[2] = {0, 0};
    double topk_ms[2] = {0, 0};
    double probability[2] = {0, 0};
    std::vector<double> topk_probs[2];
    bool ok = true;
  };

  bool all_match = true;
  std::vector<double> ladder_e2e_speedups, ladder_warm_speedups,
      ladder_topk_speedups;
  std::vector<double> ladder_strat_e2e, dag_strat_e2e, ladder_mono_e2e,
      dag_mono_e2e;
  double ladder_warm_strat_total = 0.0;
  std::size_t ladder_warm_solves = 0;

  for (const Member& m : corpus) {
    PerTree r;
    for (std::size_t c = 0; c < configs.size(); ++c) {
      const core::MpmcsPipeline pipe(*configs[c].opts);
      {
        util::Timer t;
        const core::MpmcsSolution sol = pipe.solve(m.tree);
        r.e2e_ms[c] = t.seconds() * 1e3;
        r.ok = r.ok && sol.status == maxsat::MaxSatStatus::Optimal;
        r.probability[c] = sol.probability;
      }
      const core::PreparedInstance prepared = pipe.prepare(m.tree);
      {
        util::Timer t;
        for (std::size_t rep = 0; rep < repeats; ++rep) {
          const core::MpmcsSolution sol =
              pipe.solve_prepared(m.tree, prepared);
          r.ok = r.ok && sol.status == maxsat::MaxSatStatus::Optimal &&
                 sol.probability == r.probability[c];
        }
        r.warm_ms[c] = t.seconds() * 1e3;
      }
      {
        util::Timer t;
        const auto sols =
            pipe.top_k_prepared(m.tree, prepared, top_k, nullptr, nullptr);
        r.topk_ms[c] = t.seconds() * 1e3;
        for (const auto& s : sols) r.topk_probs[c].push_back(s.probability);
      }
    }
    // Bit-identical across both configurations.
    bool match = r.ok;
    for (std::size_t c = 1; c < configs.size(); ++c) {
      match = match && r.probability[c] == r.probability[0] &&
              r.topk_probs[c] == r.topk_probs[0];
    }
    if (m.ladder) {
      // Exact cross-check: the ladder family is BDD-tractable.
      bdd::FaultTreeBdd exact(m.tree);
      const auto best = exact.mpmcs();
      match = match && best.has_value() &&
              std::abs(r.probability[0] - best->second) <=
                  1e-9 * best->second;
    }
    all_match = all_match && match;

    const double e2e_x = r.e2e_ms[0] / std::max(r.e2e_ms[1], 1e-6);
    const double warm_x = r.warm_ms[0] / std::max(r.warm_ms[1], 1e-6);
    const double topk_x = r.topk_ms[0] / std::max(r.topk_ms[1], 1e-6);
    if (m.ladder) {
      ladder_e2e_speedups.push_back(e2e_x);
      ladder_warm_speedups.push_back(warm_x);
      ladder_topk_speedups.push_back(topk_x);
      ladder_strat_e2e.push_back(r.e2e_ms[1]);
      ladder_mono_e2e.push_back(r.e2e_ms[0]);
      ladder_warm_strat_total += r.warm_ms[1];
      ladder_warm_solves += repeats;
    } else {
      dag_strat_e2e.push_back(r.e2e_ms[1]);
      dag_mono_e2e.push_back(r.e2e_ms[0]);
    }
    bench::print_row(
        {m.label, bench::fmt(r.e2e_ms[0], "%.1f"),
         bench::fmt(r.e2e_ms[1], "%.1f"), bench::fmt(e2e_x, "%.1fx"),
         bench::fmt(r.warm_ms[0], "%.1f"), bench::fmt(r.warm_ms[1], "%.1f"),
         bench::fmt(warm_x, "%.1fx"),
         bench::fmt(topk_x, "%.1fx") + (match ? "" : " MISMATCH")},
        {18, 12, 13, 8, 13, 14, 8, 8});
  }

  const double ladder_median_speedup = bench::median(ladder_e2e_speedups);
  const double ladder_warm_median = bench::median(ladder_warm_speedups);
  const double ladder_topk_median = bench::median(ladder_topk_speedups);
  const bool speedup_ok = ladder_median_speedup >= 5.0;
  const double strat_ladder_sps =
      ladder_warm_strat_total > 0.0
          ? ladder_warm_solves / (ladder_warm_strat_total / 1e3)
          : 0.0;
  // How far from DAG parity each strategy leaves the ladder corpus
  // (median ladder / median DAG end-to-end; 1.0 = parity).
  const double parity_mono = bench::median(ladder_mono_e2e) /
                             std::max(bench::median(dag_mono_e2e), 1e-6);
  const double parity_strat = bench::median(ladder_strat_e2e) /
                              std::max(bench::median(dag_strat_e2e), 1e-6);

  std::printf("\nladder median speedup : e2e %.1fx  warm %.1fx  top-k %.1fx\n",
              ladder_median_speedup, ladder_warm_median, ladder_topk_median);
  std::printf("ladder/DAG time ratio : mono %.1f  strat %.2f\n", parity_mono,
              parity_strat);
  std::printf("strat ladder warm     : %.0f solves/s\n", strat_ladder_sps);
  std::printf("results               : %s\n",
              all_match ? "identical optima + top-k (incl. BDD cross-check)"
                        : "MISMATCH");
  std::printf("speedup bar (>= 5x)   : %s\n", speedup_ok ? "ok" : "FAIL");

  if (!args.json_path.empty()) {
    std::string json = "{\n  \"bench\": \"ablation_stratified\",\n";
    json += "  \"trees\": " + std::to_string(corpus.size()) + ",\n";
    json += "  \"repeats\": " + std::to_string(repeats) + ",\n";
    json += "  \"ladderMedianSpeedup\": " +
            util::format_double(ladder_median_speedup) + ",\n";
    json += "  \"ladderWarmMedianSpeedup\": " +
            util::format_double(ladder_warm_median) + ",\n";
    json += "  \"ladderTopkMedianSpeedup\": " +
            util::format_double(ladder_topk_median) + ",\n";
    json += "  \"ladderDagRatioMono\": " + util::format_double(parity_mono) +
            ",\n";
    json += "  \"ladderDagRatioStrat\": " + util::format_double(parity_strat) +
            ",\n";
    json += "  \"stratLadderSolvesPerSecond\": " +
            util::format_double(strat_ladder_sps) + ",\n";
    json += std::string("  \"ladderSpeedupOk\": ") +
            (speedup_ok ? "true" : "false") + ",\n";
    json += std::string("  \"resultsMatch\": ") +
            (all_match ? "true" : "false") + "\n}\n";
    bench::write_json(args.json_path, json);
  }
  return all_match && speedup_ok ? 0 : 1;
}
