#!/usr/bin/env bash
# Builds the benchmark runner from source inside the checkout and runs it.
# All build state (Go build cache, module cache, binary) stays under
# .bench_build/ at the checkout root; nothing outside the checkout is touched.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
cd "$here"
# HOME is redirected for the build only, so the toolchain's own state
# (telemetry counters, env file) also lands inside the checkout.
HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
GOCACHE="$build/gocache" GOPATH="$build/gopath" \
GOTOOLCHAIN=local \
	go build -o "$build/gcbench" . >&2
exec "$build/gcbench" "$@"
