#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload plan-grid --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache, span files) stays
# under .bench_build in the current directory, which git ignores.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd perfbench && go build -buildvcs=false -o "$out/perfbench" .)
PERFBENCH_COMMIT="$(git rev-parse HEAD 2>/dev/null || echo unknown)" exec "$out/perfbench" "$@"
