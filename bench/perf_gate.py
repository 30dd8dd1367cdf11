#!/usr/bin/env python3
"""CI perf-regression gate.

Runs the fixed-seed benchmark binaries (bench_engine_batch,
fig1_fps_mpmcs, ablation_preprocess, ablation_incremental,
voting_gates, ablation_stratified, ablation_mutation, corpus_repro),
takes per-metric medians over a few
runs, writes the combined report (BENCH_pr10.json) and fails when a
throughput metric regresses more than --tolerance below the committed
bench/baseline.json.

    python3 bench/perf_gate.py --build-dir build            # gate
    python3 bench/perf_gate.py --build-dir build --update   # refresh baseline

Correctness flags (fig1 allOk, the ablations' resultsMatch, the
voting-gate >= 40% wide-vote clause-reduction bar, and the corpus
harness's optimality / differential / cross-format / round-trip /
paper-anchor gates) are hard failures regardless of tolerance.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ENGINE_BATCH_ARGS = ["6", "6", "150", "4"]
ABLATION_ARGS = ["16"]
ABLATION_INCREMENTAL_ARGS = ["8"]
VOTING_GATES_ARGS = ["1"]
ABLATION_STRATIFIED_ARGS = ["4"]
ABLATION_MUTATION_ARGS = ["4"]


def run_bench(binary, args, runs):
    """Runs `binary` `runs` times, returns the list of parsed --json docs.

    A non-zero exit is tolerated as long as the JSON report was written:
    fig1/ablation exit 1 exactly when their correctness flag is false,
    and that flag must surface as a readable gate check, not a crash.
    """
    docs = []
    for _ in range(runs):
        with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
            path = tmp.name
        try:
            proc = subprocess.run([binary, *args, "--json", path],
                                  stdout=subprocess.DEVNULL)
            try:
                with open(path) as fh:
                    docs.append(json.load(fh))
            except (OSError, json.JSONDecodeError) as exc:
                raise SystemExit(
                    f"{binary} exited {proc.returncode} without a usable "
                    f"JSON report: {exc}")
        finally:
            os.unlink(path)
    return docs


def median_of(docs, pick):
    return statistics.median(pick(doc) for doc in docs)


def collect_metrics(build_dir, runs):
    """Returns {metric_name: value} plus hard correctness flags."""
    metrics = {}
    flags = {}

    batch = run_bench(os.path.join(build_dir, "bench_engine_batch"),
                      ENGINE_BATCH_ARGS, runs)
    metrics["engine_batch.sequential_tps"] = median_of(
        batch, lambda d: d["sequentialTreesPerSecond"])
    for config in batch[0]["configs"]:
        label = config["label"].replace(" ", "_")
        metrics[f"engine_batch.{label}_tps"] = median_of(
            batch, lambda d, l=config["label"]: next(
                c["treesPerSecond"] for c in d["configs"] if c["label"] == l))

    fig1 = run_bench(os.path.join(build_dir, "fig1_fps_mpmcs"), [], 1)
    flags["fig1.all_ok"] = bool(fig1[0]["allOk"])

    ablation = run_bench(os.path.join(build_dir, "ablation_preprocess"),
                         ABLATION_ARGS, runs)
    metrics["ablation.solves_per_second_on"] = median_of(
        ablation, lambda d: d["solvesPerSecondOn"])
    metrics["ablation.median_speedup"] = median_of(
        ablation, lambda d: d["medianSpeedup"])
    flags["ablation.results_match"] = all(d["resultsMatch"] for d in ablation)

    incremental = run_bench(os.path.join(build_dir, "ablation_incremental"),
                            ABLATION_INCREMENTAL_ARGS, runs)
    metrics["incremental.warm_solves_per_second_on"] = median_of(
        incremental, lambda d: d["warmSolvesPerSecondOn"])
    metrics["incremental.warm_median_speedup"] = median_of(
        incremental, lambda d: d["warmMedianSpeedup"])
    metrics["incremental.topk_median_speedup"] = median_of(
        incremental, lambda d: d["topkMedianSpeedup"])
    flags["incremental.results_match"] = all(
        d["resultsMatch"] for d in incremental)

    voting = run_bench(os.path.join(build_dir, "voting_gates"),
                       VOTING_GATES_ARGS, runs)
    metrics["voting.auto_solves_per_second"] = median_of(
        voting, lambda d: d["autoSolvesPerSecond"])
    metrics["voting.totalizer_median_speedup"] = median_of(
        voting, lambda d: d["totalizerMedianSpeedup"])
    # Deterministic (fixed seeds, counts not timings): any drop means the
    # encoding itself regressed.
    metrics["voting.wide_clause_reduction_median"] = median_of(
        voting, lambda d: d["wideClauseReductionMedian"])
    flags["voting.results_match"] = all(d["resultsMatch"] for d in voting)
    flags["voting.wide_reduction_ok"] = all(
        d["wideReductionOk"] for d in voting)

    stratified = run_bench(os.path.join(build_dir, "ablation_stratified"),
                           ABLATION_STRATIFIED_ARGS, runs)
    metrics["stratified.ladder_median_speedup"] = median_of(
        stratified, lambda d: d["ladderMedianSpeedup"])
    metrics["stratified.ladder_solves_per_second"] = median_of(
        stratified, lambda d: d["stratLadderSolvesPerSecond"])
    flags["stratified.results_match"] = all(
        d["resultsMatch"] for d in stratified)
    # The ladder acceptance bar: the module pass (named by its alias,
    # stratified) must beat monolithic OLL >= 5x (median, end-to-end) on
    # the ladder corpus.
    flags["stratified.ladder_speedup_ok"] = all(
        d["ladderSpeedupOk"] for d in stratified)

    mutation = run_bench(os.path.join(build_dir, "ablation_mutation"),
                         ABLATION_MUTATION_ARGS, runs)
    metrics["mutation.weight_median_speedup"] = median_of(
        mutation, lambda d: d["weightMedianSpeedup"])
    metrics["mutation.mono_median_speedup"] = median_of(
        mutation, lambda d: d["monoMedianSpeedup"])
    metrics["mutation.warm_edits_per_second"] = median_of(
        mutation, lambda d: d["warmEditsPerSecond"])
    flags["mutation.results_match"] = all(
        d["resultsMatch"] for d in mutation)
    # The mutation acceptance bar: weight-only drift on a closed-form top
    # over frontier modules must re-solve >= 10x faster than a cold
    # prepare+solve, with zero cold prepares (counter-verified) and one
    # touched frontier module per splice.
    flags["mutation.weight_speedup_ok"] = all(
        d["weightSpeedupOk"] for d in mutation)
    flags["mutation.zero_prepare_ok"] = all(
        d["zeroPrepareOk"] for d in mutation)
    flags["mutation.splice_strata_ok"] = all(
        d["spliceStrataOk"] for d in mutation)

    corpus = run_bench(os.path.join(build_dir, "corpus_repro"), [], runs)
    metrics["corpus.solves_per_second"] = median_of(
        corpus, lambda d: d["corpusSolvesPerSecond"])
    metrics["corpus.parse_events_per_second"] = median_of(
        corpus, lambda d: d["parseEventsPerSecond"])
    # Every instance optimal, every single-solver choice on the same
    # optimum, BDD oracle and WCNF re-import identities, the
    # Galileo/Open-PSA twins agreeing, generator round-trips at up to
    # 10^5 events, and the paper's Fig. 1 anchor ({x1, x2}, P = 0.02).
    flags["corpus.all_optimal"] = all(d["allOptimal"] for d in corpus)
    flags["corpus.results_match"] = all(d["resultsMatch"] for d in corpus)
    flags["corpus.cross_format_match"] = all(
        d["crossFormatMatch"] for d in corpus)
    flags["corpus.roundtrip_ok"] = all(d["roundtripOk"] for d in corpus)
    flags["corpus.fig1_reproduced"] = all(
        d["fig1Reproduced"] for d in corpus)

    return metrics, flags


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir", default="build")
    parser.add_argument("--baseline", default="bench/baseline.json")
    parser.add_argument("--out", default="BENCH_pr10.json")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed fractional regression (default 0.20)")
    parser.add_argument("--runs", type=int, default=3,
                        help="runs per bench; medians are compared")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline instead of gating")
    args = parser.parse_args()

    metrics, flags = collect_metrics(args.build_dir, args.runs)

    if args.update:
        with open(args.baseline, "w") as fh:
            json.dump({"metrics": metrics}, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"baseline written to {args.baseline}")
        for name, value in sorted(metrics.items()):
            print(f"  {name:40s} {value:.2f}")
        return 0

    with open(args.baseline) as fh:
        baseline = json.load(fh)["metrics"]

    checks = []
    ok = True
    for name, value in sorted(metrics.items()):
        base = baseline.get(name)
        if base is None:
            checks.append({"metric": name, "current": value,
                           "baseline": None, "pass": True,
                           "note": "no baseline entry"})
            continue
        passed = value >= base * (1.0 - args.tolerance)
        ok = ok and passed
        checks.append({"metric": name, "current": value, "baseline": base,
                       "ratio": value / base if base else None,
                       "pass": passed})
    for name, value in sorted(flags.items()):
        ok = ok and value
        checks.append({"metric": name, "current": value, "pass": bool(value)})

    report = {"tolerance": args.tolerance, "runs": args.runs,
              "metrics": metrics, "flags": flags, "checks": checks,
              "pass": ok}
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")

    for check in checks:
        status = "ok  " if check["pass"] else "FAIL"
        base = check.get("baseline")
        if isinstance(check["current"], bool):
            print(f"[{status}] {check['metric']:40s} {check['current']}")
        elif base:
            print(f"[{status}] {check['metric']:40s} "
                  f"{check['current']:10.2f} vs baseline {base:10.2f} "
                  f"({100 * check['ratio']:.0f}%)")
        else:
            print(f"[{status}] {check['metric']:40s} {check['current']:10.2f}")
    print(f"\nperf gate: {'PASS' if ok else 'FAIL'} "
          f"(tolerance {args.tolerance:.0%}, report {args.out})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
