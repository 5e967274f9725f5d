#!/usr/bin/env bash
# Builds ntcsperf from the checkout this script sits in and runs it with the
# arguments given. The build cache, the build's scratch files, the
# toolchain's own files and the binary all stay inside the checkout, under
# .bench_build/.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
# With a fresh config directory the go command starts a detached
# "go ** telemetry **" sidecar that outlives it. Telemetry off: no sidecar.
mkdir -p "$build/tmp" "$build/config/go/telemetry"
echo off >"$build/config/go/telemetry/mode"
GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	go build -o "$build/ntcsperf" ./benchmarks/ntcsperf
exec "$build/ntcsperf" "$@"
