// Ablation: delta re-solve (core::MpmcsPipeline::apply_delta) vs cold
// re-prepare+solve on a drifting model.
//
// Workload model: a monitoring deployment holds a registered tree and
// streams edits at it — sensor-derived probability drift (weight-only
// deltas), maintenance toggles, and the occasional structural splice
// when a subsystem is re-designed. The mutation engine's claim, measured
// per edit class:
//
//   * weight drift, monolithic — the SAT state is weight-independent, so
//     apply_delta patches softs in place and REBASES the live
//     incremental session: zero re-encoding and zero cold prepares
//     (asserted via the global prepare counter). Reported per edit size
//     (1/4/16 ops — the patch cost is edit-size-insensitive).
//   * weight drift, frontier modules — a closed-form OR over modules
//     that need search (the default's module pass gives each its own
//     artefact and session): the edit reweights only the module it
//     touched and rebases that module's session; every other module
//     keeps its proven optimum and re-answers without a SAT call. This
//     is the architecture's headline number and carries the acceptance
//     gate: median >= 10x over the cold path.
//   * module splice — exactly one frontier module pays a cold prepare (or
//     a reweight when the new module shape coincides with the old); the
//     untouched modules' artefacts and warm sessions are reused.
//   * weight drift, closed form — an OR of AND modules needs no search at
//     all; reported beside the gated figures.
//
// Every warm re-solve is differential: its scaled-integer optimum must
// equal a from-scratch prepare+solve of the identical tree.
//
// usage: ablation_mutation [repeats] [--json PATH]
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "core/pipeline.hpp"
#include "ft/parser.hpp"
#include "ft/tree_delta.hpp"
#include "gen/generator.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/timer.hpp"

namespace {

using namespace fta;

/// A top-OR over `modules` modules of 12-19 events each, names scoped
/// per module so splices can re-address them. Closed form: each module is
/// an AND of its events. Otherwise each module is an AND of eight ORs
/// over three of its events, which overlap: a hitting-set kernel that
/// needs search.
ft::FaultTree modular_tree(std::size_t modules, std::uint64_t seed,
                           bool closed_form) {
  util::Rng rng(seed);
  std::string text = "toplevel TOP;\nTOP or";
  for (std::size_t m = 0; m < modules; ++m) {
    text += " m" + std::to_string(m);
  }
  text += ";\n";
  for (std::size_t m = 0; m < modules; ++m) {
    const std::string p = "m" + std::to_string(m);
    const std::size_t arity = 12 + rng.below(8);
    for (std::size_t e = 0; e < arity; ++e) {
      text += p + "e" + std::to_string(e) +
              " prob=" + util::format_double(rng.uniform(0.02, 0.4)) + ";\n";
    }
    std::string decl = p + " and";
    const std::size_t terms = closed_form ? arity : 8;
    for (std::size_t t = 0; t < terms; ++t) {
      if (closed_form) {
        decl += " " + p + "e" + std::to_string(t);
        continue;
      }
      const std::string term = p + "c" + std::to_string(t);
      decl += " " + term;
      text += term + " or";
      for (int i = 0; i < 3; ++i) {
        text += " " + p + "e" + std::to_string((3 * t + i) % arity);
      }
      text += ";\n";
    }
    text += decl + ";\n";
  }
  return ft::parse_fault_tree(text);
}


ft::TreeDelta weight_drift(const ft::FaultTree& tree, util::Rng& rng,
                           std::size_t ops) {
  ft::TreeDelta delta;
  for (std::size_t o = 0; o < ops; ++o) {
    const auto e = static_cast<ft::EventIndex>(rng.below(tree.num_events()));
    delta.ops.push_back(
        ft::TreeDelta::weight(tree.event(e).name, rng.uniform(0.01, 0.95)));
  }
  return delta;
}

/// Median warm (apply_delta + solve_prepared) and cold (prepare + solve)
/// milliseconds over `edits` one-event weight edits of `tree`, whose
/// artefact is `prepared`. Clears `zero_prepare_ok` when a warm edit
/// cold-prepares and `all_match` when warm and cold optima differ.
std::pair<double, double> drift(const core::MpmcsPipeline& pipeline,
                                ft::FaultTree& tree,
                                core::PreparedInstance& prepared,
                                std::size_t edits, std::uint64_t seed,
                                bool& zero_prepare_ok, bool& all_match,
                                std::vector<double>& speedups) {
  std::vector<double> warm_ms, cold_ms;
  util::Rng rng(seed);
  for (std::size_t rep = 0; rep < edits; ++rep) {
    const ft::TreeDelta delta = weight_drift(tree, rng, 1);
    ft::FaultTree next = ft::apply_delta(tree, delta);

    const std::uint64_t prepares_before =
        core::MpmcsPipeline::prepare_calls();
    util::Timer warm_t;
    pipeline.apply_delta(next, delta, prepared);
    const core::MpmcsSolution warm = pipeline.solve_prepared(next, prepared);
    warm_ms.push_back(warm_t.seconds() * 1e3);
    zero_prepare_ok = zero_prepare_ok &&
                      core::MpmcsPipeline::prepare_calls() == prepares_before;

    util::Timer cold_t;
    const core::PreparedInstance fresh = pipeline.prepare(next);
    const core::MpmcsSolution cold = pipeline.solve_prepared(next, fresh);
    cold_ms.push_back(cold_t.seconds() * 1e3);
    speedups.push_back(cold_ms.back() / warm_ms.back());

    all_match = all_match && warm.status == maxsat::MaxSatStatus::Optimal &&
                cold.status == maxsat::MaxSatStatus::Optimal &&
                warm.scaled_cost == cold.scaled_cost;
    tree = std::move(next);
  }
  return {bench::median(warm_ms), bench::median(cold_ms)};
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::parse_args(argc, argv);
  const std::size_t repeats =
      args.positional.empty()
          ? 6
          : static_cast<std::size_t>(std::atoi(args.positional[0]));
  const std::size_t edit_sizes[] = {1, 4, 16};

  // Deterministic single-thread solver so the comparison measures the
  // mutation path, not portfolio scheduling noise.
  core::PipelineOptions opts;
  opts.solver = core::SolverChoice::Oll;

  const core::MpmcsPipeline pipeline(opts);

  struct Member {
    std::string label;
    ft::FaultTree tree;
  };
  std::vector<Member> corpus;
  for (const auto& [events, seed] :
       {std::pair<std::uint32_t, std::uint64_t>{600u, 0xD600},
        {1000u, 0xD601},
        {1400u, 0xD602}}) {
    gen::GeneratorOptions g;
    g.num_events = events;
    g.vote_fraction = 0.1;
    g.sharing = 0.2;
    corpus.push_back({"random" + std::to_string(events),
                      gen::random_tree(g, seed)});
  }

  bench::banner("ablation: mutation delta re-solve vs cold re-solve");
  std::printf("model: %zu weight-drift edits per tree per size %zu/%zu/%zu "
              "(solver = oll)\n\n",
              repeats, edit_sizes[0], edit_sizes[1], edit_sizes[2]);
  bench::print_row({"tree", "ops", "warm ms", "cold ms", "speedup"},
                   {16, 6, 10, 10, 10});

  bool all_match = true;
  bool zero_prepare_ok = true;
  std::vector<double> mono_speedups, warm_ms_all, cold_ms_all;
  std::vector<double> warm_by_size[3];
  double warm_total_s = 0.0;
  std::size_t warm_solves = 0;

  for (Member& m : corpus) {
    core::PreparedInstance prepared = pipeline.prepare(m.tree);
    // Absorb one-time lazy construction (session warm-up) so the steady
    // state is what's measured.
    all_match = all_match &&
                pipeline.solve_prepared(m.tree, prepared).status ==
                    maxsat::MaxSatStatus::Optimal;
    util::Rng rng(0xDE17A ^ m.tree.num_events());
    for (std::size_t si = 0; si < 3; ++si) {
      std::vector<double> warm_ms, cold_ms;
      for (std::size_t rep = 0; rep < repeats; ++rep) {
        const ft::TreeDelta delta =
            weight_drift(m.tree, rng, edit_sizes[si]);
        ft::FaultTree next = ft::apply_delta(m.tree, delta);

        const std::uint64_t prepares_before =
            core::MpmcsPipeline::prepare_calls();
        util::Timer warm_t;
        pipeline.apply_delta(next, delta, prepared);
        const core::MpmcsSolution warm =
            pipeline.solve_prepared(next, prepared);
        warm_ms.push_back(warm_t.seconds() * 1e3);
        zero_prepare_ok =
            zero_prepare_ok &&
            core::MpmcsPipeline::prepare_calls() == prepares_before;

        util::Timer cold_t;
        const core::PreparedInstance fresh = pipeline.prepare(next);
        const core::MpmcsSolution cold =
            pipeline.solve_prepared(next, fresh);
        cold_ms.push_back(cold_t.seconds() * 1e3);

        all_match = all_match &&
                    warm.status == maxsat::MaxSatStatus::Optimal &&
                    cold.status == maxsat::MaxSatStatus::Optimal &&
                    warm.scaled_cost == cold.scaled_cost;
        m.tree = std::move(next);
        warm_total_s += warm_ms.back() / 1e3;
        ++warm_solves;
      }
      const double wm = bench::median(warm_ms);
      const double cm = bench::median(cold_ms);
      warm_by_size[si].push_back(wm);
      mono_speedups.push_back(cm / wm);
      warm_ms_all.insert(warm_ms_all.end(), warm_ms.begin(), warm_ms.end());
      cold_ms_all.insert(cold_ms_all.end(), cold_ms.begin(), cold_ms.end());
      bench::print_row({si == 0 ? m.label : "",
                        std::to_string(edit_sizes[si]),
                        bench::fmt(wm, "%.2f"), bench::fmt(cm, "%.1f"),
                        bench::fmt(mono_speedups.back(), "%.1fx")},
                       {16, 6, 10, 10, 10});
    }
  }

  // The module pass on frontier modules: drift touches one module, whose
  // session is rebased; the others keep their proven optima. This is
  // where the acceptance gate lives.
  core::PipelineOptions sopts = opts;
  sopts.solver = core::SolverChoice::Auto;
  const core::MpmcsPipeline strat(sopts);
  constexpr std::size_t kModules = 48;
  ft::FaultTree mod = modular_tree(kModules, 0x51ab, /*closed_form=*/false);
  core::PreparedInstance sprep = strat.prepare(mod);
  all_match = all_match && strat.solve_prepared(mod, sprep).status ==
                               maxsat::MaxSatStatus::Optimal;
  bool splice_strata_ok =
      sprep.strata && sprep.strata->strata.size() == kModules;

  std::vector<double> strat_speedups;
  const auto [strat_warm, strat_cold] = drift(
      strat, mod, sprep, 2 * repeats, 0xd21f7, zero_prepare_ok, all_match,
      strat_speedups);
  ft::FaultTree closed = modular_tree(kModules, 0x51ab, /*closed_form=*/true);
  core::PreparedInstance cprep = strat.prepare(closed);
  std::vector<double> closed_speedups;
  const auto [closed_warm, closed_cold] =
      drift(strat, closed, cprep, 2 * repeats, 0xc105e, zero_prepare_ok,
            all_match, closed_speedups);

  // Structural splices: swap one module's definition per edit; exactly
  // one stratum may pay (a cold prepare normally, a reweight when the
  // replacement's shape happens to match the displaced module's).
  std::vector<double> splice_warm_ms, splice_cold_ms, splice_speedups;
  util::Rng srng(0x5b1ce);
  for (std::size_t rep = 0; rep < repeats; ++rep) {
    const std::size_t victim = srng.below(kModules);
    const std::string fresh_a = "n" + std::to_string(rep) + "a";
    const std::string fresh_b = "n" + std::to_string(rep) + "b";
    ft::TreeDelta delta;
    delta.ops.push_back(ft::TreeDelta::replace(
        "m" + std::to_string(victim),
        "toplevel R;\nR and " + fresh_a + " " + fresh_b + ";\n" + fresh_a +
            " prob=" + util::format_double(srng.uniform(0.05, 0.4)) + ";\n" +
            fresh_b + " prob=" +
            util::format_double(srng.uniform(0.05, 0.4)) + ";\n"));
    ft::FaultTree next = ft::apply_delta(mod, delta);

    const std::uint64_t prepares_before =
        core::MpmcsPipeline::prepare_calls();
    util::Timer warm_t;
    const core::DeltaApplication stats =
        strat.apply_delta(next, delta, sprep);
    const core::MpmcsSolution warm = strat.solve_prepared(next, sprep);
    splice_warm_ms.push_back(warm_t.seconds() * 1e3);
    const std::uint64_t prepares_spent =
        core::MpmcsPipeline::prepare_calls() - prepares_before;
    if (stats.reprepared ||
        stats.strata_reused + 1 < stats.strata_total || prepares_spent > 1) {
      std::printf("splice %zu (m%zu): reprepared=%d strata %zu/%zu/%zu of "
                  "%zu, %llu prepares\n",
                  rep, victim, stats.reprepared ? 1 : 0, stats.strata_reused,
                  stats.strata_reweighted, stats.strata_reprepared,
                  stats.strata_total,
                  static_cast<unsigned long long>(prepares_spent));
      splice_strata_ok = false;
    }

    util::Timer cold_t;
    const core::PreparedInstance fresh = strat.prepare(next);
    const core::MpmcsSolution cold = strat.solve_prepared(next, fresh);
    splice_cold_ms.push_back(cold_t.seconds() * 1e3);
    splice_speedups.push_back(splice_cold_ms.back() / splice_warm_ms.back());

    all_match = all_match && warm.status == maxsat::MaxSatStatus::Optimal &&
                cold.status == maxsat::MaxSatStatus::Optimal &&
                warm.scaled_cost == cold.scaled_cost;
    mod = std::move(next);
  }

  const double mono_median = bench::median(mono_speedups);
  const double strat_median = bench::median(strat_speedups);
  const double splice_median = bench::median(splice_speedups);
  const double warm_median_ms = bench::median(warm_ms_all);
  const double cold_median_ms = bench::median(cold_ms_all);
  const bool weight_speedup_ok = strat_median >= 10.0;
  const double warm_rate = warm_solves / (warm_total_s > 0 ? warm_total_s
                                                           : 1e-9);

  std::printf("\nmonolithic drift : median %.2f ms warm vs %.2f ms cold "
              "(%.1fx)\n",
              warm_median_ms, cold_median_ms, mono_median);
  std::printf("frontier drift   : median %.2f ms warm vs %.2f ms cold "
              "(%.1fx, gate >= 10x: %s)\n",
              strat_warm, strat_cold, strat_median,
              weight_speedup_ok ? "ok" : "FAIL");
  std::printf("module splice    : median %.1fx over cold "
              "(one touched module per splice: %s)\n",
              splice_median, splice_strata_ok ? "ok" : "FAIL");
  std::printf("closed-form drift: median %.3f ms warm vs %.3f ms cold "
              "(%.1fx, no search)\n",
              closed_warm, closed_cold, bench::median(closed_speedups));
  std::printf("zero prepares on weight drift: %s\n",
              zero_prepare_ok ? "ok" : "FAIL");
  std::printf("results          : %s\n",
              all_match ? "identical optima vs cold re-solve" : "MISMATCH");

  if (!args.json_path.empty()) {
    std::string json = "{\n  \"bench\": \"ablation_mutation\",\n";
    json += "  \"trees\": " + std::to_string(corpus.size()) + ",\n";
    json += "  \"repeats\": " + std::to_string(repeats) + ",\n";
    json += "  \"monoWarmMsMedian\": " +
            util::format_double(warm_median_ms) + ",\n";
    json += "  \"monoColdMsMedian\": " +
            util::format_double(cold_median_ms) + ",\n";
    json += "  \"monoMedianSpeedup\": " +
            util::format_double(mono_median) + ",\n";
    for (std::size_t si = 0; si < 3; ++si) {
      json += "  \"warmMsMedianOps" + std::to_string(edit_sizes[si]) +
              "\": " + util::format_double(bench::median(warm_by_size[si])) +
              ",\n";
    }
    json += "  \"warmEditsPerSecond\": " + util::format_double(warm_rate) +
            ",\n";
    json += "  \"stratWarmMsMedian\": " + util::format_double(strat_warm) +
            ",\n";
    json += "  \"stratColdMsMedian\": " + util::format_double(strat_cold) +
            ",\n";
    json += "  \"closedFormWarmMsMedian\": " +
            util::format_double(closed_warm) + ",\n";
    json += "  \"closedFormColdMsMedian\": " +
            util::format_double(closed_cold) + ",\n";
    json += "  \"weightMedianSpeedup\": " +
            util::format_double(strat_median) + ",\n";
    json += "  \"spliceMedianSpeedup\": " +
            util::format_double(splice_median) + ",\n";
    json += std::string("  \"weightSpeedupOk\": ") +
            (weight_speedup_ok ? "true" : "false") + ",\n";
    json += std::string("  \"zeroPrepareOk\": ") +
            (zero_prepare_ok ? "true" : "false") + ",\n";
    json += std::string("  \"spliceStrataOk\": ") +
            (splice_strata_ok ? "true" : "false") + ",\n";
    json += std::string("  \"resultsMatch\": ") +
            (all_match ? "true" : "false") + "\n}\n";
    bench::write_json(args.json_path, json);
  }
  const bool ok =
      all_match && weight_speedup_ok && zero_prepare_ok && splice_strata_ok;
  return ok ? 0 : 1;
}
