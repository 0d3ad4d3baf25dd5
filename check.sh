#!/bin/sh
# Repo verification gate: build, unit/property/golden tests, the
# observability self-check, the profiling reconciliation check (the
# attribution ledger must account for every flit-hop the NoC carried),
# the static-cost-model reconciliation (the closed-form table must stay
# within the divergence threshold of the measured ledger),
# the fault-injection + schedule-repair self-check, the serve daemon
# round-trip (a repeated identical request must come back as a
# byte-identical cache hit), the telemetry gate (one JSONL access-log
# line per request, a well-formed Prometheus exposition, and per-phase
# span sums reconciling with the request-latency histogram within 5%),
# the fusion reconciliation gate (the fusion
# decision table must show a real >=15% measured flit-hop reduction on
# the residual-block chain workload), then the static analysis suite
# (IR lint + schedule race detection over all 14 workloads under the
# default, partitioned, and fused partitioned schemes — the fused
# schedules are race-validated over the whole suite here). Every phase
# runs even when an earlier one fails; the gate
# exits nonzero naming each failed phase, so a broken build can no longer
# mask a broken test phase (or vice versa). See DESIGN.md "Analysis &
# validation" for the diagnostic codes and "Fault model & repair" for the
# fault phase.
#
#   ./check.sh [-j N]
#
# -j N fans the validation cells over N domains (default: nproc). The
# diagnostics are identical at any job count. Each phase is timed, and
# the serial baseline recorded by a `-j 1` run (.check_serial_seconds) is
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

# The obs, profile, analyze, telemetry and fusion phases assert on the
# JSON and Prometheus output with inline python3; without it those
# assertions cannot run, so the gate refuses to start rather than skip them.
if ! command -v python3 >/dev/null 2>&1; then
  echo "check.sh: python3 is required (the obs, profile, analyze, telemetry and fusion phases assert with it)" >&2
  exit 2
fi

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

obs_gate() (
  # Trace an app end-to-end, self-check the trace against the aggregate
  # stats, and make sure the emitted Chrome JSON actually parses.
  set -e
  _trace=$(mktemp /tmp/ndp_trace.XXXXXX.json)
  dune exec bin/ndp_run.exe -- trace mg -o "$_trace" --selfcheck
  python3 -c "import json,sys; d=json.load(open(sys.argv[1])); assert d['traceEvents'], 'empty traceEvents'" "$_trace"
  rm -f "$_trace"
  dune exec bin/ndp_run.exe -- stats fft --format json >/dev/null
)

profile_gate() (
  # Profile an app and assert the attribution ledger reconciles exactly
  # against the NoC's own link counters: every flit-hop the simulated
  # network carried must be attributed to some (statement, array, route).
  set -e
  _prof=$(mktemp /tmp/ndp_profile.XXXXXX.json)
  dune exec bin/ndp_run.exe -- profile mg --format json >"$_prof"
  python3 -c "
import json, sys
d = json.load(open(sys.argv[1]))
r = d['reconciliation']
assert r['reconciled'], 'ledger does not reconcile: %r' % r
assert r['ledger_flit_hops'] == r['noc_link_flits'], r
assert r['ledger_flit_hops'] > 0, 'empty ledger'
assert d['ledger']['totals']['flit_hops'] == r['ledger_flit_hops'], 'totals mismatch'
assert d['timeline']['series'], 'no timeline series'
" "$_prof"
  rm -f "$_prof"
)

analyze_gate() (
  # Reconcile the static cost model against a measured run: the analyze
  # subcommand itself gates on the divergence threshold (exit nonzero),
  # and the JSON must carry a non-empty per-statement table whose static
  # total matches the sum of its rows.
  set -e
  _an=$(mktemp /tmp/ndp_analyze.XXXXXX.json)
  dune exec bin/ndp_run.exe -- analyze mg --format json >"$_an"
  python3 -c "
import json, sys
d = json.load(open(sys.argv[1]))
assert d['statements'], 'empty static cost table'
assert d['within_threshold'], 'divergence above threshold: %r' % d['totals']
t = d['totals']
assert t['static_flit_hops'] == sum(s['static_flit_hops'] for s in d['statements']), 'total != sum of rows'
assert t['static_flit_hops'] > 0 and t['measured_flit_hops'] > 0, 'empty totals'
" "$_an"
  rm -f "$_an"
)

serve_gate() (
  # Start the compile-as-a-service daemon on a throwaway socket, send the
  # same profile request twice, and assert the second reply is a result
  # cache hit whose body is byte-identical to the cold one; then shut the
  # daemon down cleanly.
  set -e
  _sock=$(mktemp -u /tmp/ndp_serve.XXXXXX.sock)
  _cold=$(mktemp /tmp/ndp_cold.XXXXXX.json)
  _warm=$(mktemp /tmp/ndp_warm.XXXXXX.json)
  _meta=$(mktemp /tmp/ndp_meta.XXXXXX.txt)
  dune exec bin/ndp_run.exe -- serve --socket "$_sock" 2>/dev/null &
  _daemon=$!
  # The daemon unlinks any stale socket then binds; poll for the file.
  _tries=0
  while [ ! -S "$_sock" ]; do
    _tries=$((_tries + 1))
    if [ "$_tries" -gt 100 ]; then
      echo "serve_gate: daemon never bound $_sock" >&2
      kill "$_daemon" 2>/dev/null || true
      exit 1
    fi
    sleep 0.1
  done
  _client="$(pwd)/_build/default/bin/ndp_run.exe"
  "$_client" client profile fft --socket "$_sock" --meta >"$_cold" 2>"$_meta"
  grep -q "cached=false" "$_meta"
  "$_client" client profile fft --socket "$_sock" --meta >"$_warm" 2>"$_meta"
  grep -q "cached=true" "$_meta"
  cmp "$_cold" "$_warm"
  "$_client" client shutdown --socket "$_sock" >/dev/null
  wait "$_daemon"
  rm -f "$_sock" "$_cold" "$_warm" "$_meta"
)

fusion_gate() (
  # Reconcile the fusion pass against the measured ledger: the decision
  # table must be non-empty on the residual-block chain workload, every
  # decision must elide stores and predict a positive saving, and the
  # fused run must undercut the unfused one by at least 15% of the
  # measured NoC flit-hops. (The fused schedules themselves are
  # race-validated suite-wide by the check phase's --fuse sweep.)
  set -e
  _fus=$(mktemp /tmp/ndp_fusion.XXXXXX.json)
  dune exec bin/ndp_run.exe -- analyze resnet_block --fusion --format json >"$_fus"
  python3 -c "
import json, sys
d = json.load(open(sys.argv[1]))
assert d['decisions'], 'no fusion decisions on resnet_block'
t = d['totals']
assert t['fused_flit_hops'] < t['unfused_flit_hops'], t
assert t['reduction_pct'] >= 15.0, 'reduction below 15%%: %r' % t
for dec in d['decisions']:
    assert dec['elided_stores'] > 0, dec
    assert dec['predicted_saved_flit_hops'] > 0, dec
    assert dec['measured_delta_flit_hops'] > 0, dec
" "$_fus"
  rm -f "$_fus"
)

telemetry_gate() (
  # Observability gate, two halves. (1) A deterministic stdio session
  # under the fake clock must emit exactly one well-formed JSONL
  # access-log line per demo request. (2) A real daemon must serve a
  # well-formed Prometheus exposition (TYPE'd families, no duplicate
  # series, cumulative histogram buckets, per-op request histograms),
  # and on a cold traced request the per-phase span sum must reconcile
  # with the recorded serve.request_ms within 5%.
  set -e
  _log=$(mktemp /tmp/ndp_access.XXXXXX.jsonl)
  _reqs=$(mktemp /tmp/ndp_reqs.XXXXXX.txt)
  dune exec bin/ndp_run.exe -- serve --demo-requests >"$_reqs"
  NDP_FAKE_CLOCK=1 dune exec bin/ndp_run.exe -- serve --stdio --access-log "$_log" <"$_reqs" >/dev/null
  python3 - "$_reqs" "$_log" <<'PY'
import json, sys
reqs = sum(1 for i, _ in enumerate(open(sys.argv[1])) if i % 2 == 1)  # frames: len\npayload\n
lines = [json.loads(l) for l in open(sys.argv[2])]
assert len(lines) == reqs, 'expected %d access-log lines, got %d' % (reqs, len(lines))
for i, d in enumerate(lines):
    assert d['seq'] == i + 1 and d['id'] == i + 1, d
    for k in ('op', 'key', 'ok', 'cached', 'ms', 'bytes_out', 'spans', 'phases'):
        assert k in d, (k, d)
PY
  _sock=$(mktemp -u /tmp/ndp_tele.XXXXXX.sock)
  _prom=$(mktemp /tmp/ndp_prom.XXXXXX.txt)
  : >"$_log"
  dune exec bin/ndp_run.exe -- serve --socket "$_sock" --access-log "$_log" 2>/dev/null &
  _daemon=$!
  _tries=0
  while [ ! -S "$_sock" ]; do
    _tries=$((_tries + 1))
    if [ "$_tries" -gt 100 ]; then
      echo "telemetry_gate: daemon never bound $_sock" >&2
      kill "$_daemon" 2>/dev/null || true
      exit 1
    fi
    sleep 0.1
  done
  _client="$(pwd)/_build/default/bin/ndp_run.exe"
  "$_client" client profile cholesky --socket "$_sock" >/dev/null
  "$_client" client metrics-text --socket "$_sock" >"$_prom"
  "$_client" client shutdown --socket "$_sock" >/dev/null
  wait "$_daemon"
  python3 - "$_prom" <<'PY'
import re, sys
seen, families, last = set(), {}, {}
for raw in open(sys.argv[1]):
    line = raw.rstrip('\n')
    if not line:
        continue
    if line.startswith('#'):
        m = re.match(r'# TYPE (\w+) (counter|gauge|histogram)$', line)
        assert m, 'bad comment line: %r' % line
        assert m.group(1) not in families, 'duplicate TYPE for %s' % m.group(1)
        families[m.group(1)] = m.group(2)
        continue
    m = re.match(r'([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$', line)
    assert m, 'bad sample line: %r' % line
    name, labels, value = m.group(1), m.group(2) or '', m.group(3)
    assert (name, labels) not in seen, 'duplicate series %s%s' % (name, labels)
    seen.add((name, labels))
    float(value)
    base = re.sub(r'_(bucket|sum|count)$', '', name)
    assert base in families or name in families, 'sample %s lacks a TYPE' % name
    if name.endswith('_bucket'):
        key = (base, re.sub(r'le="[^"]*",?', '', labels))
        v = float(value)
        assert v >= last.get(key, 0.0), 'non-cumulative buckets for %s%s' % (name, labels)
        last[key] = v
assert families.get('serve_requests') == 'counter', families
assert families.get('serve_request_ms') == 'histogram', families
assert any(n == 'serve_request_ms_bucket' and 'op="profile"' in l for n, l in seen), \
    'no per-op request histogram series'
PY
  python3 - "$_log" <<'PY'
import json, sys
cold = [d for d in map(json.loads, open(sys.argv[1])) if d['op'] == 'profile' and not d['cached']]
assert cold, 'no cold traced profile request in the access log'
d = cold[0]
phase_ms = sum(p['ms'] for p in d['phases'].values())
ratio = phase_ms / d['ms']
assert 0.95 <= ratio <= 1.0, \
    'phase spans (%.3f ms) do not reconcile with request ms (%.3f ms): ratio %.3f' \
    % (phase_ms, d['ms'], ratio)
PY
  rm -f "$_log" "$_reqs" "$_prom" "$_sock"
)

fault_gate() (
  # Inject a deterministic fault plan (killed link, stalled node, slowed
  # MC), repair the schedule around it, and run the built-in selfcheck:
  # same-seed reproducibility, empty-plan identity, avoided nodes idle
  # after repair, fault counters present.
  set -e
  dune exec bin/ndp_run.exe -- \
    inject fft --faults "kill=2,stall=9@0+200000,mc=0x2" --repair --selfcheck \
    >/dev/null
)

phase build dune build
phase runtest dune runtest
phase obs obs_gate
phase profile profile_gate
phase analyze analyze_gate
phase fault fault_gate
phase serve serve_gate
phase telemetry telemetry_gate
phase fusion fusion_gate
phase check dune exec bin/ndp_run.exe -- check --fuse --jobs "$jobs"

if [ -n "$failures" ]; then
  echo "check.sh: FAILED phases:$failures" >&2
  exit 1
fi

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
