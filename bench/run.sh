#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash bench/run.sh --workload deploy-loop --seed 1 --seconds 10 --trace 0
#
# Every build and run artifact (Go build cache, temp files, the binary,
# per-layer reports) stays under .bench_build/ in the current directory.
set -euo pipefail

if [[ ! -f go.mod || ! -d bench ]]; then
	echo "bench/run.sh: run from the repository root (go.mod and bench/ not found)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/home"
export GOCACHE="$out/go-cache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home"
export GOENV=off GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local

(cd bench && go build -o "$out/bench" .) >&2
exec "$out/bench" "$@"
