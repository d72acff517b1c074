#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload hot-edits --seed 1 --seconds 32 --trace 0
#
# Run it from the repository root. The build cache, the binary, result
# records, span files and index files all go under .bench_build/ there;
# nothing is written elsewhere. The build fails — and so does the run,
# without printing a result — when the repository's Go module is not
# beside perfbench/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench.bin" .) >&2
exec "$out/perfbench.bin" --out "$out" "$@"
