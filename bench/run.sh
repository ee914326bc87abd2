#!/usr/bin/env bash
# Builds the benchmark from source and runs it, touching nothing outside the
# checkout: the binary, the Go build cache and GOPATH live in .bench_build/
# at the repository root, results and scratch files in bench/out/.
#
#   bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
#   bash bench/run.sh -seed N
#   bash bench/run.sh compare A.json B.json
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOWORK=off
go -C "$root/bench" build -o "$build/optcc-bench" .
exec "$build/optcc-bench" -out "$root/bench/out" "$@"
