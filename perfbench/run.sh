#!/usr/bin/env bash
# Builds the benchmark from source inside the current checkout and runs
# it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload sweep-cold --seed 1 --seconds 50 --trace 0
#
# Build outputs (binary, Go build cache) stay under .bench_build/.
set -euo pipefail
out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOFLAGS= \
  GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
