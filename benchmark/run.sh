#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. It builds the benchmark from
# source and runs it from benchmark/, with the Go build cache under
# benchmark/out so that nothing is written outside the checkout.
# Arguments pass through: run.sh --workload fast_scan --seed 1 --seconds 12 --trace 0
set -euo pipefail
cd "$(dirname "$0")"
mkdir -p out
export GOCACHE="$PWD/out/gocache" GOTOOLCHAIN=local
go build -o out/olapbench .
exec out/olapbench "$@"
