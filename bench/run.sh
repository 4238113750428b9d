#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness from source and
# runs it with the arguments given. Everything the build and the run write
# stays under the checkout: the Go build cache and temporary files go to
# .bench_build/ beside the binaries, not to $HOME or /tmp.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
work="$root/.bench_build"
mkdir -p "$work/bin" "$work/gocache" "$work/tmp"
export GOCACHE="$work/gocache" GOTMPDIR="$work/tmp" GOTOOLCHAIN=local
# bench/ is a module of its own that reaches the repository through a
# replace directive; without the repository around it this build fails and
# no result is printed.
(cd "$root/bench" && go build -o "$work/bin/bench" .)
cd "$root"
exec "$work/bin/bench" -root "$root" -work "$work" "$@"
