#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources into .bench_build and
# runs it with the given arguments. Run from the repository root:
#
#	bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 30 --trace 0
#
# The Go build cache lives under .bench_build too, so nothing is read from
# or written to a shared cache, and no module is ever downloaded.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOFLAGS=-mod=readonly \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off CGO_ENABLED=0
(cd "$root/perfbench" && go build -trimpath -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
