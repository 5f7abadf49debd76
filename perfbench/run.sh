#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#   bash perfbench/run.sh --workload bfs-solo --seed 1 --seconds 10 --trace 0
# Run it from the repository root. Build outputs, the Go build cache,
# checkpoints and sockets all stay under $CARGO_TARGET_DIR (default
# .bench_build) inside the checkout.
set -euo pipefail
build="${CARGO_TARGET_DIR:-.bench_build}"
abs="$build"
case "$abs" in /*) ;; *) abs="$PWD/$build" ;; esac
mkdir -p "$abs/tmp"
export GOCACHE="$abs/gocache" GOMODCACHE="$abs/gomod" GOPATH="$abs/gopath" GOTMPDIR="$abs/tmp"
export GOTOOLCHAIN=local GOENV=off GOFLAGS= GOWORK=off
# The go command keeps telemetry counters under the user config directory;
# point it inside the build directory too.
(cd perfbench && XDG_CONFIG_HOME="$abs/config" go build -o "$abs/perfbench" .)
exec "$abs/perfbench" --scratch "$build" "$@"
