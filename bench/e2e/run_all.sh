#!/usr/bin/env bash
# Runs every workload of the end-to-end benchmark, untraced and traced:
#
#   bench/e2e/run_all.sh <seed> <out-dir> [seconds]
#
# Result files land in <out-dir>. Exits 1 when any run fails a correctness
# gate or does not build, else 2 when any run is marked invalid (its traced
# children outgrew their parent), else 0.
set -euo pipefail

seed=${1:?usage: run_all.sh <seed> <out-dir> [seconds]}
out=${2:?usage: run_all.sh <seed> <out-dir> [seconds]}
seconds=${3:-20}
cd "$(dirname "$0")/../.."

status=0
for workload in refine-tcam mcam-variation tenants-skewed filtered-churn; do
  for trace in 0 1; do
    python3 bench/e2e/run.py --workload "$workload" --seed "$seed" --seconds "$seconds" \
      --trace "$trace" --out "$out" || status=1
    result="$out/$workload-seed$seed-trace$trace.json"
    if [[ $status -eq 0 ]] && grep -q '"valid": false' "$result"; then
      echo "run_all.sh: $result is marked invalid" >&2
      status=2
    fi
  done
done
exit "$status"
