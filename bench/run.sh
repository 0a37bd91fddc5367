#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the checkout and
# runs it with the given arguments. Everything the build writes stays inside
# the checkout: the Go build cache, the toolchain's temporary files, and its
# per-user configuration directory (where it keeps telemetry counters).
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
(cd "$here" && go build -o "$out/bench" .)
exec "$out/bench" "$@"
