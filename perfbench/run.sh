#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in, then
# runs it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload sweep-small --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout: the Go build cache, the binary, scratch state and reports.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
work="$root/.bench_build/perfbench"
mkdir -p "$work/gocache" "$work/gotmp" "$work/config"
export GOCACHE="$work/gocache" GOTMPDIR="$work/gotmp" XDG_CONFIG_HOME="$work/config" \
	GOPATH="$work/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$work/perfbench" .)
cd "$root"
exec "$work/perfbench" -work "$work" "$@"
