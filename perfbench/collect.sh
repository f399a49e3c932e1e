#!/usr/bin/env bash
# Makes a result set for the comparer: every workload over seeds 1..N
# with --trace 0, then one --trace 1 run each, for run_seconds from
# BENCHMARK.json, records written to OUT.
#
#   bash perfbench/collect.sh OUT [N] [WORKLOAD...]
#   bash perfbench/run.sh compare OUT_BASE OUT_NEW
set -euo pipefail
out=${1:?usage: collect.sh OUT [N] [WORKLOAD...]}
n=${2:-10}
shift $(( $# < 2 ? $# : 2 ))
workloads=("$@")
if [[ ${#workloads[@]} -eq 0 ]]; then
	workloads=(corpus long-input search serve-mix)
fi
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
seconds=$(grep -o '"run_seconds": *[0-9]*' BENCHMARK.json | grep -o '[0-9]*$')
mkdir -p "$out"
for w in "${workloads[@]}"; do
	for seed in $(seq 1 "$n"); do
		bash perfbench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 --out "$out" >>"$out/lines.txt"
	done
	bash perfbench/run.sh --workload "$w" --seed 1 --seconds "$seconds" --trace 1 --out "$out" >>"$out/lines.txt"
done
