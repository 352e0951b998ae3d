#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Run from the repository root:
#   bash benchmark/run.sh --workload enum_local --seed 1 --seconds 25 --trace 0
# Builds the benchmark (a nested Go module) and runs it. Everything the
# build and the run write — Go's build cache included — stays under
# .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ] || [ ! -f "$root/BENCHMARK.json" ]; then
	echo "benchmark/run.sh: run from the root of a full checkout (go.mod, internal/, BENCHMARK.json)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local
(cd "$root/benchmark" && go build -o "$out/bin/benchmark" .)
exec "$out/bin/benchmark" -repo "$root" "$@"
