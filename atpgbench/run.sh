#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it.
# Usage, from the repository root:
#   bash atpgbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Everything the build and the run write stays under .bench_build/ in
# the repository root, so the Go caches are private to this checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
# The go command keeps its telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$out/config"
export GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$root/atpgbench" && go build -o "$out/atpgbench" .) >&2
exec "$out/atpgbench" "$@"
