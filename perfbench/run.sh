#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build and runs it.
#
#   bash perfbench/run.sh --workload replay-mix --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every file the build and the run write
# (Go build cache and temporaries, binary, results, spans, scratch inputs)
# stays under .bench_build in the working directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gotmp"
export GOTOOLCHAIN=local GOFLAGS= GOTMPDIR="$out/gotmp" TMPDIR="$out/gotmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"

(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
