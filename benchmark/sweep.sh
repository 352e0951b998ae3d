#!/usr/bin/env bash
# Runs every workload once per seed, untraced, and appends the records
# to one run-set — the input of `-compare` and of the steadiness check
# (quartile spread over ten seeds within each metric's bound).
#   bash benchmark/sweep.sh out.json [first-seed] [last-seed] [seconds]
# seconds defaults to run_seconds of BENCHMARK.json.
set -euo pipefail
out=${1:?usage: sweep.sh out.json [first-seed] [last-seed] [seconds]}
first=${2:-1}
last=${3:-10}
seconds=${4:-}
for workload in enum_local enum_tcp serve_http census_k4; do
	for seed in $(seq "$first" "$last"); do
		bash benchmark/run.sh --workload "$workload" --seed "$seed" ${seconds:+--seconds "$seconds"} --trace 0 -out "$out" | tail -n 1
	done
done
bash benchmark/run.sh -compare "$out" "$out"
