#!/usr/bin/env bash
# Builds loopbench from source and runs it with the given flags. Run it
# from the repository root:
#
#   bash bench/run.sh --workload study --seed 42 --seconds 20 --trace 0
#
# Everything the build and the run write goes under .bench_build/ in the
# working directory: the Go build cache, the go command's own config
# and telemetry files, the binary and the temporary files of the
# workloads.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOWORK=off
# Telemetry off, so the go command starts no helper process that could
# outlive this script.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"

go -C bench build -o "$build/loopbench" . >&2
exec "$build/loopbench" "$@"
