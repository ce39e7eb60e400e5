#!/usr/bin/env python3
"""Compares two sets of end-to-end benchmark runs, workload by workload.

    python3 bench/e2e/compare.py <A> <B>
    python3 bench/e2e/compare.py --baseline <dir> > bench/e2e/baselines/seed.json

Each side is a directory of bench_e2e result files (<workload>-seed<n>-trace0.json;
runs marked invalid are skipped) or a baseline file written by --baseline, which
holds every run's values. Runs pair up in seed order. For every
workload and every end-to-end metric of BENCHMARK.json it prints each side's median
and quartiles and a verdict for B against A:

  better      B wins at least 9 in 10 pairs (ties count for neither side) and the
              medians differ by more than A's interquartile range
  worse       B's median is worse than A's by more than the metric's bound, and A
              wins at least 9 in 10 pairs
  unresolved  B's median is worse by more than the bound, but the pairs do not
              settle it (the run-to-run spread is wider than the bound)
  same        otherwise

Exits 1 when any verdict is "worse". Standard library only.
"""
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
WIN_SHARE = 0.9


def end_to_end_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)["end_to_end"]


def load_dir(path):
    """{workload: [(seed, {metric: value})]} in seed order, plus the host facts.
    Runs the benchmark marked invalid are left out."""
    runs, host = {}, {}
    for name in sorted(glob.glob(os.path.join(path, "*-trace0.json"))):
        with open(name) as f:
            result = json.load(f)
        if not result["valid"]:
            print(f"compare.py: skipping invalid run {name}", file=sys.stderr)
            continue
        values = {k: m["value"] for k, m in result["metrics"].items()}
        runs.setdefault(result["workload"], []).append((result["seed"], values))
        host = {k: result["host"][k] for k in ("nproc", "compiler", "rerank_kernel")}
        host["seconds"] = result["seconds"]
    for workload_runs in runs.values():
        workload_runs.sort(key=lambda run: run[0])
    return runs, host


def load_side(path):
    if os.path.isdir(path):
        return load_dir(path)
    with open(path) as f:
        baseline = json.load(f)
    runs = {}
    for workload, entry in baseline["workloads"].items():
        runs[workload] = [
            (seed, {name: m["runs"][i] for name, m in entry["metrics"].items()})
            for i, seed in enumerate(entry["seeds"])
        ]
    return runs, baseline["host"]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a, b, better, bound):
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(a, b))
    b_wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    a_wins = sum(1 for x, y in pairs if sign * (x - y) > 0)
    a_q1, a_median, a_q3 = quartiles(a)
    b_median = statistics.median(b)
    if b_wins >= WIN_SHARE * len(pairs) and abs(b_median - a_median) > a_q3 - a_q1:
        return "better"
    worse_by = sign * (a_median - b_median) / abs(a_median) if a_median else 0.0
    if worse_by > bound:
        return "worse" if a_wins >= WIN_SHARE * len(pairs) else "unresolved"
    return "same"


def baseline(path):
    runs, host = load_dir(path)
    out = {"host": host, "workloads": {}}
    for workload, workload_runs in sorted(runs.items()):
        metrics = {}
        for metric in end_to_end_metrics():
            values = [values[metric["name"]] for _, values in workload_runs]
            q1, median, q3 = quartiles(values)
            metrics[metric["name"]] = {"unit": metric["unit"], "median": median, "q1": q1,
                                       "q3": q3, "runs": values}
        out["workloads"][workload] = {"seeds": [seed for seed, _ in workload_runs],
                                      "metrics": metrics}
    json.dump(out, sys.stdout, indent=1)
    print()
    return 0


def compare(path_a, path_b):
    runs_a, _ = load_side(path_a)
    runs_b, _ = load_side(path_b)
    worse = False
    print(f"{'workload':16} {'metric':14} {'A median [q1, q3]':>34} {'B median [q1, q3]':>34}"
          f" {'change':>8}  verdict")
    for workload in sorted(set(runs_a) | set(runs_b)):
        if workload not in runs_a or workload not in runs_b:
            print(f"{workload:16} only on one side")
            continue
        for metric in end_to_end_metrics():
            name = metric["name"]
            a = [values[name] for _, values in runs_a[workload]]
            b = [values[name] for _, values in runs_b[workload]]
            result = verdict(a, b, metric["better"], metric["bound"])
            worse = worse or result == "worse"
            aq, bq = quartiles(a), quartiles(b)
            change = (bq[1] - aq[1]) / abs(aq[1]) * 100.0 if aq[1] else 0.0
            print(f"{workload:16} {name:14} {aq[1]:12.6g} [{aq[0]:9.4g}, {aq[2]:9.4g}]"
                  f" {bq[1]:12.6g} [{bq[0]:9.4g}, {bq[2]:9.4g}] {change:+7.2f}%  {result}"
                  f" (n={len(a)}/{len(b)})")
    return 1 if worse else 0


def main(argv):
    if len(argv) == 3 and argv[1] == "--baseline":
        return baseline(argv[2])
    if len(argv) == 3:
        return compare(argv[1], argv[2])
    print(__doc__, file=sys.stderr)
    return 64


if __name__ == "__main__":
    sys.exit(main(sys.argv))
