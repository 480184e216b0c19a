#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it from
# the checkout root. Everything the Go toolchain writes (build cache,
# telemetry, the binary) stays under .bench_build/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config" GOWORK=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd "$here" && go build -o "$build/rekeybench" .)
cd "$root"
exec "$build/rekeybench" "$@"
