#!/usr/bin/env python3
"""Compare two result sets of the benchmark.

    python3 rtrbench/compare.py A_DIR B_DIR [--bench BENCHMARK.json]

A result set is a directory of run outputs, one file per run, named
<workload>.<anything> (for example repro.3.out).  The last line of each
file is the JSON result that run.py prints.  Untraced runs supply the
end-to-end metrics and traced runs the per-layer ones.

For every workload present in both sets, prints each metric's median
and quartiles on each side and the change of B against A.  An
end-to-end metric is marked:

  unresolved  either side's quartile spread exceeds the metric's bound,
              and the runs of the two sides overlap;
  worse       B's median is worse than A's by more than the bound;
  better      B's median is better by more than the bound;
  same        otherwise.

Per-layer metrics have no bound; their deltas are printed as they are,
and a metric whose values repeat exactly over two or more traced runs
on each side is marked exact.
Exits 2 when some end-to-end metric is worse, 1 when some is
unresolved, 0 otherwise.
"""
import argparse
import json
import os
import statistics
import sys


def load_set(path):
    runs = {}
    for name in sorted(os.listdir(path)):
        full = os.path.join(path, name)
        if not os.path.isfile(full):
            continue
        lines = [l for l in open(full).read().splitlines() if l.strip()]
        if not lines:
            continue
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(f"skipping {full}: last line is not a result",
                  file=sys.stderr)
            continue
        workload = name.split(".", 1)[0]
        runs.setdefault(workload, []).append(result)
    return runs


def summary(xs):
    med = statistics.median(xs)
    if len(xs) >= 2:
        q1, _, q3 = statistics.quantiles(xs, n=4)
    else:
        q1 = q3 = xs[0]
    return med, q1, q3


def spread(med, q1, q3):
    return (q3 - q1) / abs(med) if med else 0.0


def values(results, metric):
    return [r["metrics"][metric]["value"]
            for r in results if metric in r["metrics"]]


def verdict(a, b, bound, better):
    (ma, qa1, qa3), (mb, qb1, qb3) = summary(a), summary(b)
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (mb - ma) / abs(ma) if ma else 0.0
    if max(spread(ma, qa1, qa3), spread(mb, qb1, qb3)) > bound:
        if all(sign * y > sign * x for x in a for y in b):
            return "better"
        if all(sign * y < sign * x for x in a for y in b):
            return "worse"
        return "unresolved"
    if gain < -bound:
        return "worse"
    if gain > bound:
        return "better"
    return "same"


def fmt(med, q1, q3):
    return f"{med:14.6g} [{q1:.6g} .. {q3:.6g}]"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("a")
    ap.add_argument("b")
    ap.add_argument("--bench", default="BENCHMARK.json")
    args = ap.parse_args()
    bench = json.load(open(args.bench))
    set_a, set_b = load_set(args.a), load_set(args.b)
    worst = 0
    for workload in [w["name"] for w in bench["workloads"]]:
        ra, rb = set_a.get(workload, []), set_b.get(workload, [])
        if not ra or not rb:
            continue
        print(f"== {workload}  (A: {len(ra)} runs, B: {len(rb)} runs, "
              "traced runs included)")
        print(f"  {'metric':34} {'A median [q1 .. q3]':>40} "
              f"{'B median [q1 .. q3]':>40} {'change':>9}")
        for m in bench["end_to_end"]:
            a, b = values(ra, m["name"]), values(rb, m["name"])
            if not a or not b:
                continue
            sa, sb = summary(a), summary(b)
            change = (sb[0] - sa[0]) / abs(sa[0]) if sa[0] else 0.0
            v = verdict(a, b, m["bound"], m["better"])
            worst = max(worst, {"worse": 2, "unresolved": 1}.get(v, 0))
            print(f"  {m['name'] + ' (' + m['unit'] + ')':34} {fmt(*sa):>40} "
                  f"{fmt(*sb):>40} {change:+9.2%}  {v} "
                  f"(bound {m['bound']:.0%}, {m['better']} is better)")
        for m in bench["per_layer"]:
            a, b = values(ra, m["name"]), values(rb, m["name"])
            if not a or not b or (not any(a) and not any(b)):
                continue
            sa, sb = summary(a), summary(b)
            change = (sb[0] - sa[0]) / abs(sa[0]) if sa[0] else 0.0
            exact = (min(len(a), len(b)) >= 2
                     and len(set(a)) == 1 and len(set(b)) == 1)
            print(f"  {m['name'] + ' (' + m['unit'] + ')':34} {fmt(*sa):>40} "
                  f"{fmt(*sb):>40} {change:+9.2%}"
                  f"{'  exact' if exact else ''}")
    sys.exit(worst)


if __name__ == "__main__":
    main()
