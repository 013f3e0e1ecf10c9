#!/usr/bin/env bash
# Builds the benchmark from the checkout this script sits in and runs it
# with the given arguments, e.g.
#
#   bash bench/run.sh --workload paper-50 --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files, the toolchain's user config
# (where it keeps local telemetry) and the binary stay under .bench_build/
# at the checkout root, and nothing is fetched: the only dependency is the
# enclosing module, through bench/go.mod's replace.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local \
	GOPROXY=off GOENV=off
go build -C "$root/bench" -o "$out/dirq-bench" .
exec "$out/dirq-bench" "$@"
