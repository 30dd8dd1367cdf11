#!/usr/bin/env python3
"""Runs each workload once per seed and prints every end-to-end metric's
median and quartiles beside its bound from BENCHMARK.json.

Run from the repository root, with nothing else busy on the machine:

    python3 e2ebench/steadiness.py                       # seeds 1-10, all workloads
    python3 e2ebench/steadiness.py --workloads whatif --seeds 1-5

The spread is (q3 - q1) / median over the runs, quartiles as Python's
statistics.quantiles(values, n=4) gives them. A metric is "steady" when
its spread is below a third of its bound; every metric is judged,
setup_s too. Every run must be correct, and the share of failed
operations must be identical in every run.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds):
    os.makedirs(".bench_out", exist_ok=True)
    log = os.path.join(".bench_out", "steadiness-%s-seed%d.log" % (workload, seed))
    with open(log, "w") as err:
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, stderr=err, text=True)
    # A run with a wrong answer prints its result and exits 1; a run
    # without a result stops the script.
    lines = out.stdout.strip().splitlines()
    if not lines:
        sys.exit("%s seed %d: no result (exit %d), see %s" % (
            workload, seed, out.returncode, log))
    return json.loads(lines[-1])


def main():
    spec = json.load(open("BENCHMARK.json"))
    p = argparse.ArgumentParser()
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = p.parse_args()
    seeds = parse_seeds(args.seeds)
    steady = True
    for workload in args.workloads.split(","):
        results = []
        for seed in seeds:
            r = run_once(workload, seed, args.seconds)
            results.append(r)
            print("%s seed %d: correct=%s attempted=%d failed=%d %s" % (
                workload, seed, r["correct"], r["attempted"], r["failed"],
                " ".join("%s=%.4g" % (k, v["value"])
                         for k, v in sorted(r["metrics"].items()))),
                file=sys.stderr)
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        print("\n%s: %d runs, correct=%s, failed shares=%s" % (
            workload, len(results), correct, sorted(shares)))
        print("  %-16s %12s %12s %12s %8s %6s  %s" % (
            "metric", "median", "q1", "q3", "spread", "bound", "verdict"))
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            if spread < m["bound"] / 3:
                verdict = "steady"
            else:
                verdict = "within bound" if spread <= m["bound"] else "TOO WIDE"
                steady = False
            print("  %-16s %12.4f %12.4f %12.4f %7.1f%% %5.0f%%  %s %s" % (
                m["name"], med, q1, q3, 100 * spread, 100 * m["bound"],
                verdict, m["unit"]))
        steady = steady and correct and len(shares) == 1
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
