#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build
# writes (binary, Go build cache) stays under .bench_build in the
# checkout root; nothing is downloaded.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/wsbench" .)
exec "$build/wsbench" "$@"
