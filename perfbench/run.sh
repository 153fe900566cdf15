#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, e.g.
#
#   bash perfbench/run.sh --workload write --seed 1 --seconds 10 --trace 0
#
# Run it from the root of a checkout. The build cache, the binary and
# the traced runs' span files all stay under .bench_build/ there. A
# failed build exits non-zero without printing a result.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off GOFLAGS=
go -C "$here" build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
