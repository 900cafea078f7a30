#!/usr/bin/env bash
# BENCHMARK.json's command: build the benchmark from source inside the
# checkout, then run it with the driver's arguments
# (--workload NAME --seed N --seconds S --trace 0|1).
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache and temp dir are pointed there, and
# so are the benchmark's own outputs (result.json, traces, the scratch
# checkpoint). The first run in a checkout compiles the standard
# library into that cache; later runs reuse it.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/bench" ./bench
exec "$build/bench" -out "$build/out" "$@"
