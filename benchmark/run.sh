#!/bin/bash
# Builds the benchmark from source inside the checkout and runs it:
#   bash benchmark/run.sh --workload pingpong --seed 1 --seconds 8 --trace 0
# Everything the Go toolchain writes (build cache, temporaries, the binary)
# stays under .bench_build/ at the root of the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOTOOLCHAIN=local
go build -C "$root/benchmark" -o "$out/vmmc-benchmark" .
exec "$out/vmmc-benchmark" "$@"
