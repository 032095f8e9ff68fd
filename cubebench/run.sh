#!/usr/bin/env bash
# Builds cubebench from this checkout and runs it with the given arguments.
# Run from the repository root:
#
#   bash cubebench/run.sh --workload regress-inline --seed 1 --seconds 30 --trace 0
#   bash cubebench/run.sh compare RESULTS_A RESULTS_B
#
# The Go build cache, module cache and the binary stay under .bench_build/
# in the checkout; compilation happens here, before the benchmark starts
# its clock.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod
go -C "$root/cubebench" build -o "$build/bin/cubebench" .
exec "$build/bin/cubebench" "$@"
