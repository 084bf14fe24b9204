#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments, from
# the root of the checkout. Everything the build and the run write outside
# bench/out — binary, build cache, module cache, the compiler's and the
# engine's temporary files (spills) — stays in .bench_build inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export TMPDIR="$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$build/bench" .) >&2
cd "$root"
exec "$build/bench" "$@"
