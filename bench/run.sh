#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the checkout root and
# runs it there, so the Go build cache, module path, temporary files and the
# binary all stay inside the checkout. Arguments are passed through to the
# program.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$build/fedsu-realround" .)
cd "$root"
exec "$build/fedsu-realround" "$@"
