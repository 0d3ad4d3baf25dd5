#!/bin/sh
# Repo verification gate: `dune build`, then `dune runtest` — the unit,
# property and golden tests. Every assertion the gate makes lives in that
# suite: the observability, profiling, cost-model, fault-injection, serve,
# telemetry and fusion checks are tier-1 tests, and the whole-suite lint +
# race verdict is the check_suite_fuse golden (run serially and over four
# domains). Both phases run even when the first fails; the gate exits
# nonzero naming each failed phase.
#
#   ./check.sh [-j N]
#
# -j N is passed to dune (default: nproc). Each phase is timed, and the
# serial baseline recorded by a `-j 1` run (.check_serial_seconds) is
# compared against parallel runs so the speedup is visible.

jobs=$(nproc 2>/dev/null || echo 1)
while getopts j: opt; do
  case $opt in
  j) jobs=$OPTARG ;;
  *)
    echo "usage: $0 [-j N]" >&2
    exit 2
    ;;
  esac
done

now() { date +%s; }
t_start=$(now)

failures=""
phase() {
  _name=$1
  shift
  _t0=$(now)
  if "$@"; then
    echo "phase $_name: $(($(now) - _t0))s"
  else
    echo "phase $_name: FAILED ($(($(now) - _t0))s)" >&2
    failures="$failures $_name"
  fi
}

phase build dune build -j "$jobs"
phase runtest dune runtest -j "$jobs"

if [ -n "$failures" ]; then
  echo "check.sh: FAILED phases:$failures" >&2
  exit 1
fi

# Library + CLI size, counted the same way every time: the tracked .ml and
# .mli files under lib/ and bin/.
lines=$(git ls-files -z -- 'lib/*.ml' 'lib/*.mli' 'bin/*.ml' 'bin/*.mli' | xargs -0 cat | wc -l)
echo "lines lib+bin: $lines"

total=$(($(now) - t_start))
# Wall-clock budget: warn (without failing) when the full gate overruns,
# so a perf regression surfaces in every run, not only when someone
# re-benchmarks. A `-j 1` run records the measured gate time in
# .check_serial_seconds (below).
budget=90
echo "gate budget: ${total}s of ${budget}s"
if [ "$total" -gt "$budget" ]; then
  echo "check.sh: WARNING: full gate took ${total}s (> ${budget}s budget)" >&2
fi
baseline_file=.check_serial_seconds
if [ "$jobs" -le 1 ]; then
  echo "$total" >"$baseline_file"
  echo "total (serial, -j $jobs): ${total}s (recorded as baseline)"
elif [ -f "$baseline_file" ]; then
  before=$(cat "$baseline_file")
  echo "total: before (serial) ${before}s -> after (-j $jobs) ${total}s"
else
  echo "total (-j $jobs): ${total}s (no serial baseline; run ./check.sh -j 1 to record one)"
fi
