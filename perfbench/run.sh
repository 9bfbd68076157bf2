#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every build and run artifact stays under .bench_build/.
#
#   bash perfbench/run.sh --workload paper_mix --seed 1 --seconds 27 --trace 0
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export TMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOENV=off

# Build output goes to stderr, so the result stays the last stdout line.
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
