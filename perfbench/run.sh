#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload serve --seed 1 --seconds 25 --trace 0
#
# Everything the Go toolchain writes (build cache, module cache, telemetry
# counters) and the benchmark's own outputs stay under .bench_build/ in the
# current directory.
set -euo pipefail

root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

go build -C perfbench -o "$build/perfbench" .
export PERFBENCH_OUT="$build"
exec "$build/perfbench" "$@"
