#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments. Everything the build writes stays under .bench_build in the
# checkout root; run it from there:
#
#   bash perfbench/run.sh --workload policy_churn --seed 1 --seconds 40 --trace 0
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
