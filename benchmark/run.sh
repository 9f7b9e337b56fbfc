#!/usr/bin/env bash
# Benchmark entry point (the command in BENCHMARK.json). It keeps everything
# the Go toolchain writes inside the checkout, under .bench_build/, builds
# the harness there and hands it the driver's arguments. The harness builds
# readsim and ppa-assembler itself, into the same directory.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
b="$PWD/.bench_build"
mkdir -p "$b/bin" "$b/tmp"
export GOCACHE="$b/gocache" GOPATH="$b/gopath" GOTMPDIR="$b/tmp" \
	XDG_CONFIG_HOME="$b/config" GOTOOLCHAIN=local
go build -C benchmark -o "$b/bin/ppabench" .
exec "$b/bin/ppabench" "$@"
