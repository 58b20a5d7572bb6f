#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash bench/run.sh --workload tx-mix --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh compare runs-a/ runs-b/
#
# Everything the Go toolchain writes (binary, build cache, temp files,
# telemetry) stays under .bench_build/ at the checkout root.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C "$root/bench" build -o "$out/sledbench" .
exec "$out/sledbench" "$@"
