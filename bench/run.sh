#!/usr/bin/env bash
# Builds statbench from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash bench/run.sh --workload simulate-mix --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, temp files,
# the server's cache dirs) stays under .bench_build/ in the current
# directory, and the Go toolchain is kept offline.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=-mod=readonly

go build -C bench -o "$build/statbench" ./statbench
exec "$build/statbench" "$@"
