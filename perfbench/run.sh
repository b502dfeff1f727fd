#!/usr/bin/env bash
# Builds and runs the end-to-end benchmark. Run it from the repository root:
#
#   bash perfbench/run.sh --workload mvb-200k --seed 1 --seconds 30 --trace 0
#
# The Go build cache, the binary and the generated inputs all stay under
# .bench_build/ in the repository root.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd "$root/perfbench" && go build -o "$build/perfbench/perfbench" .)
exec "$build/perfbench/perfbench" "$@"
