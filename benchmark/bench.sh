#!/usr/bin/env bash
# The command BENCHMARK.json names: builds the benchmark from source into
# .bench_build/ (Go's build cache too, so nothing is written outside the
# checkout; a rebuild with nothing changed takes 0.1 s) and runs it with
# the arguments given. Compile time is therefore never part of setup_s.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache"
go build -o .bench_build/dynacc-benchmark ./benchmark
exec .bench_build/dynacc-benchmark "$@"
