#!/usr/bin/env python3
"""Diff two BENCH_RESULT_JSON trajectories and flag regressions.

CI uploads each run's scraped ``bench_results.jsonl`` as an artifact; this
tool diffs the current run against the previous one and emits GitHub
Actions ``::warning::`` annotations for metrics that regressed by more than
the threshold (default 15%). Regressions never fail the build by default —
perf on shared runners is noisy, so they warn and humans decide (pass
``--strict`` to turn warnings into a nonzero exit). A (bench, x) row that
appears twice in either input is an error: the rows are ambiguous, so the
tool names each repeated key and exits 1 before comparing anything.

Usage:
    tools/bench_compare.py BASELINE.jsonl CURRENT.jsonl [--threshold 0.15]
                           [--strict]

Input lines look like either of:
    BENCH_RESULT_JSON {"bench":"fig5-memkv","ops_per_sec":412.0,"p99_us":2150.0}
    BENCH_JSON {"bench":"fig3a-lazy-minutes","x":1000,"y":2.5}

Metrics are matched by (bench name [, x]) and field name. Direction is
inferred from the field name: throughput-like fields regress when they
drop, latency/size-like fields regress when they grow; unknown fields are
compared in both directions and flagged on growth (conservative).
"""

import argparse
import json
import sys

MARKERS = ("BENCH_RESULT_JSON", "BENCH_JSON")

# Field-name suffix/substring -> True when higher is better.
HIGHER_IS_BETTER = ("ops_per_sec", "speedup", "throughput", "ops",
                    "injection_points", "invariant_checks")
LOWER_IS_BETTER = ("_us", "_ms", "latency", "bytes", "amplification",
                   "delay", "p50", "p99", "y", "overhead", "ratio")
# Series points carry their metric in a generic "y" field, so direction
# must come from the bench *name* (e.g. get-scale-writer-retention and
# get-scale-meta-speedup regress when they DROP, unlike latency series).
# "-ops" covers the cluster throughput series (cluster-scan-metaq-ops,
# cluster-idx-metaq-ops); the cluster-rpc-* point-read rows carry explicit
# ops_per_sec/p50_us/p99_us fields, which the field-name rules handle.
SERIES_HIGHER_IS_BETTER = ("retention", "speedup", "scale-up", "throughput",
                           "-ops")


def parse_jsonl(path):
    """Returns ({(bench_key): {field: value}}, [repeated bench_key]) over
    every marker line."""
    out = {}
    repeated = []
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            lines = f.readlines()
    except OSError as e:
        print(f"bench_compare: cannot read {path}: {e}", file=sys.stderr)
        return out, repeated
    for line in lines:
        for marker in MARKERS:
            idx = line.find(marker)
            if idx < 0:
                continue
            payload = line[idx + len(marker):].strip()
            try:
                obj = json.loads(payload)
            except json.JSONDecodeError:
                continue
            name = obj.get("bench")
            if not name:
                continue
            key = (name, obj.get("x"))
            metrics = {k: v for k, v in obj.items()
                       if k not in ("bench", "x") and
                       isinstance(v, (int, float))}
            if key in out:
                repeated.append(key)
            out[key] = metrics
            break
    return out, repeated


def direction(field, bench=""):
    """1 = higher is better, -1 = lower is better, 0 = unknown."""
    f = field.lower()
    if f == "y":
        b = bench.lower()
        for tag in SERIES_HIGHER_IS_BETTER:
            if tag in b:
                return 1
    for tag in HIGHER_IS_BETTER:
        if f == tag or f.endswith(tag):
            return 1
    for tag in LOWER_IS_BETTER:
        if tag in f:
            return -1
    return 0


def bench_label(key):
    name, x = key
    return f"{name}@x={x:g}" if x is not None else name


def compare(baseline, current, threshold):
    """Yields (key, field, old, new, pct_change) for each regression."""
    for key, cur_metrics in sorted(current.items()):
        base_metrics = baseline.get(key)
        if not base_metrics:
            continue
        for field, new in sorted(cur_metrics.items()):
            old = base_metrics.get(field)
            if old is None or old == 0:
                continue
            d = direction(field, key[0])
            if d == 0:
                d = -1  # unknown fields: growth is suspicious
            # Relative change in the "good" direction; negative = worse.
            delta = (new - old) / abs(old) * d
            if delta < -threshold:
                yield key, field, old, new, delta


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline", help="previous run's jsonl")
    ap.add_argument("current", help="this run's jsonl")
    ap.add_argument("--threshold", type=float, default=0.15,
                    help="relative regression that triggers a warning "
                         "(default 0.15 = 15%%)")
    ap.add_argument("--strict", action="store_true",
                    help="exit 1 when any regression is found")
    args = ap.parse_args()

    baseline, base_repeated = parse_jsonl(args.baseline)
    current, cur_repeated = parse_jsonl(args.current)
    repeated = [(args.baseline, key) for key in base_repeated] + \
               [(args.current, key) for key in cur_repeated]
    for path, key in repeated:
        print(f"bench_compare: {path}: duplicate row {bench_label(key)}",
              file=sys.stderr)
    if repeated:
        return 1
    if not baseline:
        print(f"bench_compare: no baseline metrics in {args.baseline}; "
              "nothing to compare (first run?)")
        return 0
    if not current:
        print(f"bench_compare: no metrics in {args.current}", file=sys.stderr)
        return 0

    matched = sum(1 for k in current if k in baseline)
    regressions = list(compare(baseline, current, args.threshold))
    for key, field, old, new, delta in regressions:
        label = bench_label(key)
        # GitHub Actions annotation: shows up on the run summary page.
        print(f"::warning title=bench regression::{label} {field}: "
              f"{old:g} -> {new:g} ({delta * 100:+.1f}% vs baseline, "
              f"threshold {args.threshold * 100:.0f}%)")
    print(f"bench_compare: {matched}/{len(current)} benches matched a "
          f"baseline, {len(regressions)} regression(s) over "
          f"{args.threshold * 100:.0f}%")
    return 1 if (args.strict and regressions) else 0


if __name__ == "__main__":
    sys.exit(main())
