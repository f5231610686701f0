#!/usr/bin/env bash
# Builds the benchmark driver from this checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Everything the build and the run write
# (build cache, temp files, work directories, profiles, spans) stays
# under .bench_build in the current directory.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	TMPDIR="$out/tmp" PPROF_TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOENV=off GOWORK=off GOFLAGS= GOPROXY=off

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -out "$out" "$@"
