#!/usr/bin/env bash
# Runs the four workloads and then the traced pass, printing every table,
# and appends each run's full record to a JSON-lines file for -compare.
#
#   benchmark/run.sh                     # one run per workload, seed 1
#   RUNS=5 SET=a.jsonl benchmark/run.sh  # five seeds per workload into a.jsonl
#   benchmark/bench.sh -compare a.jsonl b.jsonl
#
# RUNS  untraced runs per workload, seeds SEED, SEED+1, ... (default 1)
# SEED  first seed (default 1)
# SECS  measured seconds per run; keep the default when comparing (20)
# SET   run-set file to write (default .bench_build/runs.jsonl); replaced
set -euo pipefail
cd "$(dirname "$0")/.."

runs=${RUNS:-1}
seed=${SEED:-1}
secs=${SECS:-20}
set=${SET:-.bench_build/runs.jsonl}
workloads="sim_qr sim_fleet sock_soak sock_stream"

mkdir -p .bench_build
rm -f "$set"
for w in $workloads; do
  for ((i = 0; i < runs; i++)); do
    benchmark/bench.sh -workload "$w" -seed $((seed + i)) -seconds "$secs" -trace 0 -out "$set" >/dev/null
  done
done
for w in $workloads; do
  benchmark/bench.sh -workload "$w" -seed "$seed" -seconds "$secs" -trace 1 -out "$set" >/dev/null
done
echo "run set: $set   traces: .bench_build/traces/<workload>.trace.json" >&2
