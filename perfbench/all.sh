#!/usr/bin/env bash
# Runs every workload once untraced (end-to-end metrics) and once traced
# (per-layer metrics).  Run from the repository root:
#   bash perfbench/all.sh [seed] [seconds]
set -euo pipefail
seed=${1:-1}
seconds=${2:-20}
for w in write-durable write-hot-commute read-mix write-tcp; do
	for t in 0 1; do
		bash perfbench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$t"
	done
done
