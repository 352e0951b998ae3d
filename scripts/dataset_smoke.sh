#!/usr/bin/env bash
# Dataset smoke: ingest the committed real edge-list fixture with
# radsprep, verify the .radsgraph structurally and by checksum, then
# require every registered engine to reproduce the oracle's counts on
# it via `radsbench -exp count` — triangle and a 4-vertex query, on
# both the first-seen and the degree-ordered relabeling — and the same
# for an analog written by radsprep gen.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/radsprep" ./cmd/radsprep
go build -o "$tmp/radsbench" ./cmd/radsbench

fixture=internal/dataset/testdata/karate.txt

"$tmp/radsprep" ingest "$fixture" -o "$tmp/reg/karate.radsgraph" -name karate -registry "$tmp/reg"
"$tmp/radsprep" ingest "$fixture" -o "$tmp/reg/karate-hubs.radsgraph" -name karate-hubs -degree-order -registry "$tmp/reg"
"$tmp/radsprep" verify -registry "$tmp/reg" karate
"$tmp/radsprep" verify -registry "$tmp/reg" karate-hubs
"$tmp/radsprep" stats -registry "$tmp/reg" karate -triangles

for ds in karate karate-hubs; do
  for pat in triangle q4; do
    "$tmp/radsbench" -exp count -registry "$tmp/reg" -dataset "$ds" -pattern "$pat" -machines 4
  done
done

# A generated analog takes the same path: radsprep gen writes the edge
# list, ingest registers it, and every engine must match the oracle.
"$tmp/radsprep" gen -dataset RoadNet -scale 0.1 -o "$tmp/road.txt"
"$tmp/radsprep" ingest "$tmp/road.txt" -o "$tmp/reg/road.radsgraph" -name road -registry "$tmp/reg"
"$tmp/radsbench" -exp count -registry "$tmp/reg" -dataset road -pattern q4 -machines 4

echo "dataset smoke OK"
