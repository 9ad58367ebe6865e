#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run from the root
# of a mictrend checkout:
#
#   bash e2ebench/run.sh --workload scan-seasonal --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, serving directories and traces.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/e2ebench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOENV=off GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
# The benchmark module imports the repo through `replace mictrend => ../`, so
# a directory without the repo's go.mod fails here, before any run.
go build -C e2ebench -o "$out/e2ebench" .
exec "$out/e2ebench" --workdir "$out" "$@"
