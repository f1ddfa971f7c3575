#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given: --workload W --seed N --seconds S --trace 0|1.
# Everything it writes stays in the checkout: the Go build cache and the
# binary under .bench_build/, trace files under benchmark/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOFLAGS= GOTOOLCHAIN=local
# The module replaces "repro" with the parent directory, so this fails (and
# the script with it) anywhere but inside a checkout of the repository.
(cd "$here" && go build -o "$build/lpbcast-benchmark" .)
cd "$root"
exec "$build/lpbcast-benchmark" -out "$here/out" "$@"
