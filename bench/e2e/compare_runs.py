#!/usr/bin/env python3
"""Compares two sets of end-to-end benchmark runs, or summarizes one.

Each SET is a directory; every results.json under it is one run (write
each run to its own directory with `run.sh --out DIR`). For every
workload x end-to-end metric the script prints each set's median and
quartiles and, given two sets, a verdict against the metric's bound in
BENCHMARK.json:

  same        the medians differ by no more than the bound
  better      the second set's median is better by more than the bound
  worse       the second set's median is worse by more than the bound
  unresolved  a set's spread (quartile distance / median) exceeds the
              bound, unless every run of one set beats every run of the
              other, which decides it as better or worse

It exits 1 when any pairing is worse or a metric is missing. Metrics a
run records beyond BENCHMARK.json (the served tails, the SLO rate, the
closed loop; see README.md) are listed after them with their medians,
quartiles and spreads but no verdict.

  python3 bench/e2e/compare_runs.py BASE_DIR NEW_DIR
  python3 bench/e2e/compare_runs.py --summary OUT.json RUNS_DIR
"""

import argparse
import json
import os
import statistics
import sys


def load_runs(directory):
    runs = []
    for root, _, files in os.walk(directory):
        if "results.json" in files:
            with open(os.path.join(root, "results.json")) as f:
                runs.append(json.load(f))
    if not runs:
        sys.exit(f"no results.json under {directory}")
    return runs


def values(runs, workload, metric):
    out = []
    for run in runs:
        m = run["workloads"].get(workload, {}).get("metrics", {}).get(metric)
        if m is not None:
            out.append(m["value"])
    return out


def stats(vals):
    """Median, first and third quartile, and spread as a share of the median."""
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
    spread = (q3 - q1) / abs(med) if med else 0.0
    return med, q1, q3, spread


def verdict(base, new, better, bound):
    _, _, _, sa = stats(base)
    _, _, _, sb = stats(new)
    sign = 1 if better == "lower" else -1

    def beats(x, y):
        return sign * (x - y) < 0

    if max(sa, sb) > bound:
        if all(beats(n, b) for n in new for b in base):
            return "better"
        if all(beats(b, n) for n in new for b in base):
            return "worse"
        return "unresolved"
    mb, mn = statistics.median(base), statistics.median(new)
    change = sign * (mn - mb) / abs(mb) if mb else 0.0
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def fmt(vals):
    med, q1, q3, spread = stats(vals)
    return f"{med:12.4g} [{q1:.4g}, {q3:.4g}] {100 * spread:5.1f}%"


def recorded(runs, workload, bench):
    """Names of the metrics the runs record beyond BENCHMARK.json."""
    named = {m["name"] for g in ("end_to_end", "per_layer") for m in bench[g]}
    found = {name for r in runs
             for name in r["workloads"].get(workload, {}).get("metrics", {})}
    return sorted(found - named)


def summary(runs, bench):
    out = {"runs": len(runs), "meta": runs[0].get("meta", {}), "workloads": {}}
    for w in sorted({w for r in runs for w in r["workloads"]}):
        rows = {}
        for name in ([m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
                     + recorded(runs, w, bench)):
            vals = values(runs, w, name)
            if not vals:
                continue
            med, q1, q3, _ = stats(vals)
            unit = next(r["workloads"][w]["metrics"][name]["unit"]
                        for r in runs if name in r["workloads"][w]["metrics"])
            rows[name] = {"median": med, "q1": q1, "q3": q3, "unit": unit,
                          "runs": len(vals)}
        out["workloads"][w] = rows
    return out


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("sets", nargs="+", metavar="SET")
    ap.add_argument("--benchmark",
                    default=os.path.join(here, "..", "..", "BENCHMARK.json"))
    ap.add_argument("--summary", metavar="OUT",
                    help="write medians and quartiles of the last set")
    args = ap.parse_args()
    if len(args.sets) > 2:
        ap.error("give one or two sets")
    with open(args.benchmark) as f:
        bench = json.load(f)
    sets = [load_runs(d) for d in args.sets]
    workloads = sorted({w for runs in sets for r in runs for w in r["workloads"]})

    failed = False
    print(f"runs: {', '.join(str(len(s)) for s in sets)}")
    for w in workloads:
        print(f"== {w}")
        for m in bench["end_to_end"]:
            cols = [values(runs, w, m["name"]) for runs in sets]
            if not all(cols):
                print(f"  {m['name']:24s} missing")
                failed = True
                continue
            line = f"  {m['name']:24s} " + "  ".join(fmt(c) for c in cols)
            if len(sets) == 2:
                v = verdict(cols[0], cols[1], m["better"], m["bound"])
                failed = failed or v == "worse"
                line += f"  {v} (bound {100 * m['bound']:.3g}%)"
            elif stats(cols[0])[3] > m["bound"]:
                line += f"  spread over bound {100 * m['bound']:.3g}%"
            print(line)
        for name in recorded([r for runs in sets for r in runs], w, bench):
            cols = [values(runs, w, name) for runs in sets]
            if all(cols):
                print(f"  {name:24s} " + "  ".join(fmt(c) for c in cols)
                      + "  recorded")
    if args.summary:
        with open(args.summary, "w") as f:
            json.dump(summary(sets[-1], bench), f, indent=1, sort_keys=True)
            f.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
