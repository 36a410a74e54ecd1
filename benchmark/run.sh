#!/usr/bin/env bash
# Builds the harness from source into .bench_build/ at the root of the
# checkout (go build cache included, so nothing is written outside the
# checkout) and runs it from the root with the arguments given.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$here" && go build -o "$build/fedms-benchmark" .)
cd "$root"
exec "$build/fedms-benchmark" "$@"
