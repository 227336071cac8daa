#!/usr/bin/env bash
# Builds the tomod benchmark from source and runs it. Run from the
# repository root; every build and run artifact stays under
# .bench_build/ (Go build cache included).
#
#   bash tomobench/run.sh --workload ingest-wal --seed 1 --seconds 20 --trace 0
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" TMPDIR="$out/gotmp"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOMODCACHE="$out/gomodcache"
(cd "$root/tomobench" && go build -o "$out/tomobench" .)
exec "$out/tomobench" --out "$out" "$@"
