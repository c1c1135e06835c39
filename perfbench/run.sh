#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it runs in, then
# runs it. Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload exec-local --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write goes under .bench_build/ in
# the checkout: the Go build cache, the binary, work directories and
# trace files.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
