#!/usr/bin/env bash
# Run every workload once untraced and once traced, printing each one's
# named metrics and its row of the per-layer self-time table. Exits 1 if
# any run's output checks fail. Usage, from the repository root:
#   bash perfbench/all.sh [SEED] [SECONDS]
set -uo pipefail
cd "$(dirname "$0")/.."
seed=${1:-1}
seconds=${2:-20}
status=0
for w in compile_suite replay_sweep check_gate serve_mixed; do
  for t in 0 1; do
    bash perfbench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$t" \
      | grep -v '^{' || status=1
  done
done
exit $status
