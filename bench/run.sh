#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark from source
# inside the checkout — compiler cache included, so nothing is read or
# written outside it — and runs it with the driver's arguments:
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOFLAGS=-modcacherw GOTOOLCHAIN=local
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
