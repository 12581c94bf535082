#!/usr/bin/env bash
# Builds ctcpperf and ctcpbench from source into .bench_build/ under the
# current directory (the repository root), then runs the benchmark with the
# given arguments, e.g.
#
#   bash cmd/ctcpperf/run.sh --workload kernels-fdrt --seed 1 --seconds 10 --trace 0
#
# Every Go cache, temporary and configuration directory is redirected into
# .bench_build so the run writes nothing outside the checkout. Build output
# goes to stderr: the last line of stdout is always the benchmark's result.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOENV=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=

(
	cd "$root/cmd/ctcpperf"
	go build -o "$out/ctcpperf" .
	go build -o "$out/ctcpbench" ctcp/cmd/ctcpbench
) >&2

exec "$out/ctcpperf" "$@"
