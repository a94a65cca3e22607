#!/bin/sh
# Entry point named by BENCHMARK.json: builds the harness from source and
# runs it, keeping everything it writes inside the checkout it is run
# from (Go build cache, build temp files and the binary under
# .bench_build/, run records and scratch data under bench/out/).
#
#   sh bench/run.sh --workload wan_ladder --seed 1 --seconds 20 --trace 0
#
# Day-to-day use needs none of this: `go run ./bench -workload all`.
set -eu
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$PWD/$build ;;
esac
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
