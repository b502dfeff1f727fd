#!/usr/bin/env bash
# Prints, for every workload in BENCHMARK.json, every end-to-end metric
# (tracing off) and then every per-layer metric (a separate traced
# invocation), each by name with its unit. Run from the repository root:
#
#   bash perfbench/report.sh [seed] [seconds]
set -euo pipefail
seed=${1:-1}
seconds=${2:-30}
names=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
for w in $names; do
	for trace in 0 1; do
		bash perfbench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" | sed '$d'
		echo
	done
done
