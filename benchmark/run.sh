#!/usr/bin/env bash
# Builds the served-path benchmark from source and runs it with the given
# flags. Run it from the repository root:
#
#   bash benchmark/run.sh -workload episode_fsc -seed 1 -seconds 10 -trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# working directory: the Go build cache, the binary, checkpoint stores and
# span files. Without the repository's own sources next to benchmark/ the
# build fails and the script exits non-zero.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
# XDG_CONFIG_HOME keeps the go command's telemetry counters here too.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=

(cd "$root/benchmark" && go build -o "$build/servedbench" .)
exec "$build/servedbench" "$@"
