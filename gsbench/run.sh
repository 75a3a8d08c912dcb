#!/usr/bin/env bash
# Builds the gsbench runner from this checkout and runs it with the given
# arguments. Run from the repository root:
#
#   bash gsbench/run.sh --workload ingest-wire --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and run scratch files stay under
# .bench_build/ in the repository root.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/gsbench/go.mod" ]; then
	echo "gsbench: run from the repository root (go.mod and gsbench/go.mod must exist)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off
(cd "$root/gsbench" && go build -o "$out/gsbench" .)
exec "$out/gsbench" "$@"
