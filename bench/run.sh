#!/usr/bin/env bash
# Builds the benchmark, a Go module of its own in this directory, and runs it
# with the arguments given. Everything the build and the run leave behind
# goes under .bench_build/ at the root of the checkout: the Go build cache,
# the benchmark's and the daemons' binaries, traces and per-run scratch.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd bench && go build -o "$build/bin/bench" .)
exec "$build/bin/bench" "$@"
