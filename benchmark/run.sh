#!/usr/bin/env bash
# The benchmark's command as BENCHMARK.json names it: build and run the
# benchmark from the root of a checkout, keeping everything the go tool
# writes (build cache, temporary files, the premad binary) under
# .bench_build/ in that checkout. Arguments go to the benchmark unchanged:
#
#   bash benchmark/run.sh --workload fig3_implicit --seed 1 --seconds 10 --trace 0
set -eu
root=$PWD
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOTOOLCHAIN=local GOPATH=$build/gopath
go build -o "$build/bin/benchmark" ./benchmark
exec "$build/bin/benchmark" "$@"
