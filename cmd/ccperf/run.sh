#!/usr/bin/env bash
# Builds cmd/ccperf from source and runs it with the given flags, e.g.
#
#   bash cmd/ccperf/run.sh -workload loopback-64 -seed 1 -seconds 12 -trace 0
#
# Run it from the repository root. The Go build cache, temporary files and the
# binary all live under .bench_build/ in the current directory, so a run reads
# and writes nothing outside it.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0

go -C cmd/ccperf build -o "$out/ccperf" .
exec "$out/ccperf" "$@"
