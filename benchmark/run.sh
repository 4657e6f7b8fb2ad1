#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Everything go writes (build cache, module cache, temp files, telemetry
# counters, the binary) stays under .bench_build/ in the current directory,
# the checkout root, and no user-level go configuration is read.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/bin" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS=
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C "$here" build -o "$build/bin/tsunami-benchmark" . >&2
exec "$build/bin/tsunami-benchmark" "$@"
