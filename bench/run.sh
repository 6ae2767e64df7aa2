#!/usr/bin/env bash
# The command BENCHMARK.json names. Builds the benchmark from source into
# .bench_build inside the checkout (build cache, temporary files and the
# go command's own config dir included, so nothing is written outside it)
# and runs it with the arguments given:
# --workload W --seed N --seconds S --trace 0|1.
set -euo pipefail
cd "$(dirname "$0")/.."
# Only inside a checkout of the module: never build against a go.mod
# further up.
[ -f go.mod ] || { echo "bench/run.sh: no go.mod in $PWD" >&2; exit 1; }
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOFLAGS=-buildvcs=false
export XDG_CONFIG_HOME="$build/config"
go build -o "$build/medbench" ./bench
exec "$build/medbench" -dir "$build" "$@"
