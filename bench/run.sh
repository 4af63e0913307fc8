#!/usr/bin/env bash
# Builds obfbench from this checkout's sources and runs it with the given
# arguments. Run it from the repository root:
#
#   bash bench/run.sh                                  # all five workloads
#   bash bench/run.sh -workload suite -seed 7 -seconds 10 -trace 0
#   bash bench/run.sh compare parent/runs.jsonl change/runs.jsonl
#
# Every build artifact (binary, Go build cache, temporary files, toolchain
# config) stays in .bench_build under the current directory.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly

go build -C bench -o "$build/obfbench" .
exec "$build/obfbench" "$@"
