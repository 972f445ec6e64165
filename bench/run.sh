#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ at the checkout root and runs
# it. The Go build cache and temp files stay inside the checkout too,
# so a run reads and writes nothing outside it.
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$bench")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
(cd "$bench" && go build -o "$build/bench" .)
exec "$build/bench" "$@"
