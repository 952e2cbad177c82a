#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it.
#
# Usage (from the repository root):
#   bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# The build, the Go build cache, the go command's own configuration and
# telemetry files, and every temporary file live in .bench_build/ of the
# checkout; the build never touches the network.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export TMPDIR="$build/tmp"
(
  export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
    GOTMPDIR="$build/tmp" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
  cd "$root/bench" && go build -o "$build/bench" .
) >&2
cd "$root"
exec "$build/bench" "$@"
