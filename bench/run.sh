#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout it is run from
# and runs it with the arguments given:
#
#   bash bench/run.sh --workload flat_firehose --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it writes — the Go build
# cache, the binary, the run's temporary files — stays under
# .bench_build/ and bench/out/ of that checkout.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$root/bench/out"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
(cd "$here" && go build -o "$build/prismbench" .)
exec "$build/prismbench" "$@"
