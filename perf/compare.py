#!/usr/bin/env python3
"""Compare two `perf/run.py --out` files, metric by metric.

    python3 perf/compare.py A.json B.json

A is the parent, B the change.  For every (workload, end-to-end metric)
in both files it prints each side's median and quartiles, B's change
against A in the metric's better direction, the bound from
BENCHMARK.json, and a verdict:

  worse       B's median is worse than A's by more than the bound.
  unresolved  a side's spread (q3 - q1 over its median) is wider than the
              bound, and not every run of B beats every run of A.
  better      B's median is better by more than either side's spread
              (by more than the bound when a side has under 3 samples).
  within      anything else.

Exits 1 if any verdict is "worse".
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], q[2]


def verdict(a, b, better, bound):
    """Returns (change, verdict); change > 0 means B is better."""
    sign = 1.0 if better == "higher" else -1.0
    ma, mb = statistics.median(a), statistics.median(b)
    change = sign * (mb - ma) / ma
    spread = max((q3 - q1) / m
                 for (q1, q3), m in ((quartiles(a), ma), (quartiles(b), mb)))
    b_beats_all = all(sign * (y - x) > 0 for x in a for y in b)
    if spread > bound:
        return change, "better" if b_beats_all else "unresolved"
    if change < -bound:
        return change, "worse"
    noise = bound if min(len(a), len(b)) < 3 else spread
    return change, "better" if change > noise else "within"


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(sys.argv[1]) as f:
        a_all = json.load(f)["workloads"]
    with open(sys.argv[2]) as f:
        b_all = json.load(f)["workloads"]
    worse = 0
    for w in a_all:
        if w not in b_all:
            continue
        for m in bench["end_to_end"]:
            name = m["name"]
            a_metrics, b_metrics = a_all[w]["metrics"], b_all[w]["metrics"]
            if name not in a_metrics or name not in b_metrics:
                continue
            a = a_metrics[name]["samples"]
            b = b_metrics[name]["samples"]
            change, v = verdict(a, b, m["better"], m["bound"])
            worse += v == "worse"
            (a1, a3), (b1, b3) = quartiles(a), quartiles(b)
            print("%-9s %-13s A %.6g [%.6g, %.6g]  B %.6g [%.6g, %.6g]  "
                  "%+.1f%% (bound %.0f%%)  %s"
                  % (w, name, statistics.median(a), a1, a3,
                     statistics.median(b), b1, b3, 100 * change,
                     100 * m["bound"], v))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
