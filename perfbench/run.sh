#!/usr/bin/env bash
# Builds the ascoma benchmark from source and runs it. Run from the root of
# a checkout:
#
#   bash perfbench/run.sh --workload figsweep --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, and the traced runs' spans and
# CPU profiles.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
export GOPATH="$out/gopath"
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
