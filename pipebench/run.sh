#!/usr/bin/env bash
# Builds the pipeline benchmark from source and runs it, passing every
# argument on. Run it from the repository root:
#
#   bash pipebench/run.sh --workload build-wide --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/home"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp" HOME="$build/home" XDG_CONFIG_HOME="$build/home"

bin="$build/bin/pipebench"
go build -C "$root/pipebench" -o "$bin.$$" .
mv -f "$bin.$$" "$bin"
exec "$bin" "$@"
