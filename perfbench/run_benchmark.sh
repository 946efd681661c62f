#!/usr/bin/env bash
# The whole benchmark in one command: builds the Release tree (on first
# use) and runs every workload of BENCHMARK.json in sequence, each in its
# own process, printing every metric line with its unit.
#
#   bash perfbench/run_benchmark.sh [--seed=N] [--trace] [--smoke] [--out=DIR]
#
#   --seed=N     workload seed (default 1)
#   --trace      also run each workload traced: per-layer metrics, trace
#                files under .bench_build/traces/, and bench.trace_overhead
#                (untraced / traced throughput)
#   --smoke      quick check before a full set: one set-up and a 1 s window
#                per workload
#   --out=DIR    where the metric lines go (default .bench_build/results);
#                compare_runs.py reads this directory
#
# Exits nonzero on any failed op or harness failure.
set -euo pipefail
cd "$(dirname "$0")/.."

seed=1
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
setups=3
trace=0
out=.bench_build/results
for arg in "$@"; do
  case "$arg" in
    --seed=*) seed=${arg#*=} ;;
    --trace) trace=1 ;;
    --smoke) seconds=1 setups=1 ;;
    --out=*) out=${arg#*=} ;;
    *) sed -n '2,16p' "$0" >&2; exit 2 ;;
  esac
done

workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
status=0
for w in $workloads; do
  for traced in 0 $([ "$trace" = 1 ] && echo 1); do
    result=$(python3 perfbench/run.py --workload "$w" --seed "$seed" \
      --seconds "$seconds" --setups "$setups" --trace "$traced" --out "$out")
    suffix=$([ "$traced" = 1 ] && echo -trace || true)
    cat "$out/$w-$seed$suffix.jsonl"
    if ! python3 -c 'import json,sys; sys.exit(json.loads(sys.argv[1])["failed"] > 0)' "$result"; then
      echo "run_benchmark.sh: $w: ops failed" >&2
      status=1
    fi
  done
  if [ "$trace" = 1 ]; then
    python3 - "$out/$w-$seed.jsonl" "$out/$w-$seed-trace.jsonl" <<'EOF'
import json, sys
def throughput(path):
    for line in open(path):
        r = json.loads(line)
        if r["metric"] == "throughput_ops_s":
            return r
untraced, traced = throughput(sys.argv[1]), throughput(sys.argv[2])
line = json.dumps({"workload": traced["workload"], "seed": traced["seed"],
                   "metric": "bench.trace_overhead",
                   "value": untraced["value"] / traced["value"], "unit": "ratio"})
print(line)
open(sys.argv[2], "a").write(line + "\n")
EOF
  fi
done
exit $status
