#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload crossover|dashboard|ingest --seed N --seconds S --trace 0|1
#
# Everything the build and the run write stays under .bench_build/ at the
# repository root: the Go build cache, the binary, scratch data
# directories (removed on exit) and the per-run reports in
# .bench_build/results/. The build needs no network: the benchmark module
# depends only on the repository's own module, found at ../.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTELEMETRY=off

(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
