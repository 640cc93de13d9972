#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it; the
# arguments pass through. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload interp --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write goes under .bench_build/ in the
# checkout: the Go build cache, the go command's own config and telemetry
# files, the binary and the Chrome traces of traced runs. Without the
# repository around perfbench/ the build fails and the script exits
# non-zero.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"

# The Go runtime keeps its defaults (GOGC, GOMAXPROCS = nproc): tuning them
# would hide the allocation cost users pay.
unset GOGC GOMAXPROCS GODEBUG GOMEMLIMIT
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=readonly GOTOOLCHAIN=local \
	GOPROXY=off GOWORK=off CGO_ENABLED=0

go -C "$(dirname "$0")" build -o "$out/perfbench" . >&2
exec "$out/perfbench" -trace-dir "$out/traces" "$@"
