#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Everything it writes — build cache, binary, temp files, DirStores —
# stays under .bench_build/ at the root of the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
(cd "$root/benchmark" && go build -o "$build/cracbench" .)
cd "$root"
exec "$build/cracbench" "$@"
