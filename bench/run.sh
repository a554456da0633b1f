#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ at the root of the checkout
# (Go build cache and temporaries included, so nothing is written
# outside the checkout) and runs it with the given arguments. This is
# the command BENCHMARK.json names; see bench/README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"

# XDG_CONFIG_HOME keeps the go command's telemetry counters and its
# env file inside the checkout too.
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off

(cd "$here" && go build -o "$build/codesignvm-bench" .)
exec "$build/codesignvm-bench" -dir "$here" "$@"
