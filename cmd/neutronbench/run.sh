#!/usr/bin/env bash
# Builds neutronbench from this checkout and runs it with the given
# arguments. Run it from the repository root:
#
#   bash cmd/neutronbench/run.sh --workload beam-campaigns --seed 1 --seconds 15 --trace 0
#   bash cmd/neutronbench/run.sh compare OLD_RUNS_DIR NEW_RUNS_DIR
#
# Everything the Go toolchain writes (build cache, temporary files, its
# configuration and telemetry directory) stays under .bench_build in the
# checkout, telemetry is off, and the toolchain never downloads.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
mkdir -p "$GOTMPDIR"
go telemetry off
go build -C cmd/neutronbench -o "$build/neutronbench" .
exec "$build/neutronbench" "$@"
