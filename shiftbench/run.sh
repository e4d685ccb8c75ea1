#!/usr/bin/env bash
# Builds the benchmark from source and runs it; the arguments go to the
# benchmark. Run from the module root:
#
#   bash shiftbench/run.sh --workload paper --seed 1 --seconds 10 --trace 0
#
# The binary and the Go build cache live in .bench_build/ at the module root,
# so a run reads and writes nothing outside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -d shiftbench ]]; then
	echo "shiftbench: run from the module root: go.mod, internal/ and shiftbench/ are needed" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/cache" "$build/tmp" "$build/config"
export GOCACHE="$build/cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOENV=off GOFLAGS=-mod=readonly
go build -o "$build/shiftbench" ./shiftbench
exec "$build/shiftbench" "$@"
