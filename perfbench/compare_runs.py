#!/usr/bin/env python3
"""Compares sets of gdprbench runs. Python standard library only.

    python3 perfbench/compare_runs.py agree A/ B/
    python3 perfbench/compare_runs.py pairs PARENT/ CHANGE/

Each directory holds the metric lines run.py --out (or run_benchmark.sh
--out) saved, one <workload>-<seed>.jsonl file per untraced run. Every
end_to_end metric of BENCHMARK.json is compared per workload, against the
bound and direction BENCHMARK.json gives it.

agree: two sets of runs of one commit. Prints each side's median and
quartiles, each side's spread (IQR / median) and the gap between medians,
and "agree" when the gap and both spreads stay within the bound. Exits 1
when any row disagrees: lengthen that workload's run, do not widen a bound.

pairs: runs of a parent and a change, paired by workload and seed (run
them alternating, parent first in half of the pairs). A metric shows a
gain when the change wins at least 9 of 10 pairs (ties count for neither)
and its median beats the parent's by more than the parent's IQR; a gain
does not count when more ops failed than at the parent. Otherwise the row
is "regression" when the change's median is worse by more than the bound,
"unresolved" when the parent's spread exceeds the bound and not every
change run beats every parent run, and "no-regression" otherwise.
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory):
    """{(workload, metric): {seed: value}} over the untraced runs in directory."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.jsonl"))):
        if path.endswith("-trace.jsonl"):
            continue
        with open(path) as f:
            for line in f:
                if line.strip():
                    r = json.loads(line)
                    runs.setdefault((r["workload"], r["metric"]), {})[r["seed"]] = r["value"]
    if not runs:
        sys.exit("compare_runs.py: no runs in " + directory)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def worse_by(base, other, better):
    """Relative amount by which `other` is worse than `base` (negative: better)."""
    if base == 0:
        return 0.0 if other == 0 else float("inf")
    gap = (other - base) / base
    return -gap if better == "higher" else gap


def beats(a, b, better):
    return a > b if better == "higher" else a < b


def rows(a, b):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            key = (w["name"], m["name"])
            if key in a and key in b:
                yield w["name"], m, a[key], b[key]


def agree(dir_a, dir_b):
    a, b = load(dir_a), load(dir_b)
    print("%-26s %-17s %4s %12s %12s %12s %8s %8s %8s %6s  %s" % (
        "workload", "metric", "n", "med A", "med B", "IQR A", "sprd A",
        "sprd B", "gap", "bound", "verdict"))
    ok = True
    for workload, m, ra, rb in rows(a, b):
        va, vb = list(ra.values()), list(rb.values())
        qa, qb = quartiles(va), quartiles(vb)
        gap = abs(worse_by(qa[1], qb[1], m["better"]))
        sa, sb = spread(va), spread(vb)
        # setup_s is held to its bound between medians only: set-up runs
        # several times per run already and its spread is not gated.
        spreads_ok = m["name"] == "setup_s" or max(sa, sb) <= m["bound"]
        good = gap <= m["bound"] and spreads_ok
        ok &= good
        print("%-26s %-17s %4d %12.4f %12.4f %12.4f %8.3f %8.3f %8.3f %6.2f  %s" % (
            workload, m["name"], min(len(va), len(vb)), qa[1], qb[1],
            qa[2] - qa[0], sa, sb, gap, m["bound"],
            "agree" if good else "DISAGREE"))
    return 0 if ok else 1


def pairs(dir_parent, dir_change):
    p, c = load(dir_parent), load(dir_change)

    def failed(runs):
        return sum(v for (w, m), by_seed in runs.items() if m == "failed"
                   for v in by_seed.values())

    more_failures = failed(c) > failed(p)
    if more_failures:
        print("note: the change failed more ops than the parent; no gain counts")
    print("%-26s %-17s %5s %12s %12s %12s %8s %6s  %s" % (
        "workload", "metric", "pairs", "med parent", "med change", "IQR parent",
        "worse", "bound", "verdict"))
    for workload, m, rp, rc in rows(p, c):
        seeds = sorted(set(rp) & set(rc))
        if not seeds:
            continue
        vp, vc = [rp[s] for s in seeds], [rc[s] for s in seeds]
        qp, qc = quartiles(vp), quartiles(vc)
        wins = sum(beats(rc[s], rp[s], m["better"]) for s in seeds)
        worse = worse_by(qp[1], qc[1], m["better"])
        if (not more_failures and wins >= 0.9 * len(seeds) and
                beats(qc[1], qp[1], m["better"]) and
                abs(qc[1] - qp[1]) > qp[2] - qp[0]):
            verdict = "gain (%d/%d pairs)" % (wins, len(seeds))
            if len(seeds) < 10:
                verdict += ", fewer than 10 pairs"
        elif worse > m["bound"]:
            verdict = "regression"
        elif spread(vp) > m["bound"] and not all(
                beats(x, y, m["better"]) for x in vc for y in vp):
            verdict = "unresolved"
        else:
            verdict = "no-regression"
        print("%-26s %-17s %5d %12.4f %12.4f %12.4f %8.3f %6.2f  %s" % (
            workload, m["name"], len(seeds), qp[1], qc[1], qp[2] - qp[0],
            worse, m["bound"], verdict))
    return 0


def main():
    if len(sys.argv) != 4 or sys.argv[1] not in ("agree", "pairs"):
        sys.exit(__doc__)
    mode, x, y = sys.argv[1:]
    sys.exit(agree(x, y) if mode == "agree" else pairs(x, y))


if __name__ == "__main__":
    main()
