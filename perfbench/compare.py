#!/usr/bin/env python3
"""Compares two sets of benchmark results.

    python3 perfbench/compare.py <parent-results-dir> <change-results-dir>

Each directory holds the result files run.py writes to
.bench_out/results/ (one JSON file per run). For every (workload, metric)
present on both sides the tool prints each side's median and quartiles,
the pair wins of each side, and a verdict:

  improved    the change wins at least 9 of every 10 pairs (ties count
              for neither) and the medians differ by more than the
              parent's own spread (the distance between its quartiles);
  unresolved  the parent's spread is wider than the metric's bound in
              BENCHMARK.json, unless every run of the change reads better
              than every run of the parent (then: improved);
  worse       the change's median is worse than the parent's by more
              than the bound;
  no worse    none of the above.

Runs pair by seed when both sides ran the same seeds, otherwise by order.
Per-layer metrics have no bound; they get "improved" or "-".
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {}
    for m in spec["end_to_end"]:
        metrics[m["name"]] = (m["better"], m["bound"])
    for m in spec["per_layer"]:
        metrics[m["name"]] = (m["better"], None)
    return metrics


def load_runs(directory):
    """{(workload, metric): {seed: value}} from every result file."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            doc = json.load(f)
        if not doc.get("result", {}).get("correct", False):
            print(f"note: {path} reports an incorrect run; skipped",
                  file=sys.stderr)
            continue
        for name, m in doc["result"]["metrics"].items():
            runs.setdefault((doc["workload"], name), {})[doc["seed"]] = m["value"]
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    """Verdict of the change against the parent for one metric."""
    sign = 1.0 if better == "higher" else -1.0
    if set(parent) == set(change):
        pairs = [(parent[s], change[s]) for s in sorted(parent)]
    else:
        pairs = list(zip(parent.values(), change.values()))
    wins_c = sum(1 for a, b in pairs if sign * (b - a) > 0)
    wins_p = sum(1 for a, b in pairs if sign * (a - b) > 0)
    pv, cv = list(parent.values()), list(change.values())
    p1, pm, p3 = quartiles(pv)
    c1, cm, c3 = quartiles(cv)
    spread = p3 - p1
    if better == "higher":
        dominates = min(cv) > max(pv)
    else:
        dominates = max(cv) < min(pv)
    if pairs and wins_c * 10 >= 9 * len(pairs) and \
            sign * (cm - pm) > spread:
        v = "improved"
    elif bound is None:
        v = "-"
    elif pm != 0 and spread / abs(pm) > bound:
        v = "improved" if dominates else "unresolved"
    elif sign * (pm - cm) > bound * abs(pm):
        v = "worse"
    else:
        v = "no worse"
    return (p1, pm, p3), (c1, cm, c3), wins_p, wins_c, len(pairs), v


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = load_spec()
    parent = load_runs(sys.argv[1])
    change = load_runs(sys.argv[2])
    keys = sorted(k for k in parent if k in change and k[1] in spec)
    if not keys:
        print("no (workload, metric) pair is present on both sides",
              file=sys.stderr)
        return 1
    print(f"{'workload':<12} {'metric':<44} {'parent q1/med/q3':>30} "
          f"{'change q1/med/q3':>30} {'wins p:c/n':>11}  verdict")
    counts = {}
    for wl, name in keys:
        better, bound = spec[name]
        p, c, wp, wc, n, v = verdict(parent[(wl, name)], change[(wl, name)],
                                     better, bound)
        counts[v] = counts.get(v, 0) + 1
        fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
        print(f"{wl:<12} {name:<44} {fmt(p):>30} {fmt(c):>30} "
              f"{wp:>4}:{wc}/{n:<3}  {v}")
    print("; ".join(f"{k}: {v}" for k, v in sorted(counts.items())))
    return 1 if counts.get("worse") else 0


if __name__ == "__main__":
    sys.exit(main())
