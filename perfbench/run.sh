#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload spanner-dense --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (compiler cache, binary) and every result
# file goes under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config"
export GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=mod

(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
