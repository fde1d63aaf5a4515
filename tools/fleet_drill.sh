#!/usr/bin/env bash
# Fleet crash drill (CI: the fleet job; see docs/campaigns.md).
#
# Proves the coordinator/worker failure model end to end with real
# processes and a real kill -9:
#
#   1. control: a single-process `ftmc_campaign run` of a tiny spec;
#   2. drill: a coordinator plus a deliberately throttled "victim"
#      worker that is SIGKILLed mid-lease, after which two healthy
#      workers finish the campaign — the victim's lease must expire and
#      be reissued (asserted from fleet.* telemetry), the coordinator
#      must exit 0, and journal.jsonl + results.json must be
#      byte-identical to the control run;
#   3. fleet smoke: `run --fleet 4` (four forked local workers) must
#      reproduce the same bytes again, and its log must hold each
#      worker's summary line whole;
#   4. hand-off: a campaign started in process (`run --max-cells 3`),
#      torn mid-append, and finished by `run --fleet 2` must reproduce
#      the same bytes, and the coordinator's BENCH_fleet.json must count
#      the torn line and the three journaled cells.
#
# Usage: tools/fleet_drill.sh [path/to/ftmc_campaign] [workdir]
set -euo pipefail

BIN=${1:-build/bin/ftmc_campaign}
WORK=${2:-fleet-drill}

rm -rf "$WORK"
mkdir -p "$WORK"

cat > "$WORK/spec.json" <<'EOF'
{
  "name": "drill",
  "schedulers": ["edf_vd_killing"],
  "failure_probs": [1e-3, 1e-5],
  "utilizations": [0.3, 0.5, 0.7, 0.9],
  "sets_per_point": 5,
  "seed": 20140601
}
EOF

echo "== control: single-process run"
"$BIN" run --spec "$WORK/spec.json" --out "$WORK/control" --threads 2 \
  > "$WORK/control.log"

echo "== drill: coordinator + victim (kill -9 mid-lease) + 2 workers"
FTMC_BENCH_DIR="$WORK" \
  "$BIN" coordinate --spec "$WORK/spec.json" --out "$WORK/drill" \
  --port-file "$WORK/port" --lease-cells 2 --lease-ttl-ms 2000 \
  --linger-ms 5000 > "$WORK/coordinator.log" 2>&1 &
COORD=$!

for _ in $(seq 1 100); do
  [ -s "$WORK/port" ] && break
  sleep 0.1
done
PORT=$(cat "$WORK/port")
test -n "$PORT"

# The victim computes one cell per 300 ms, so its leases (2 cells each)
# take >= 600 ms; the whole grid would take it >= 2.4 s. Killing it at
# 1 s therefore provably interrupts an outstanding lease.
"$BIN" worker --connect "127.0.0.1:$PORT" --name victim \
  --throttle-ms 300 > "$WORK/victim.log" 2>&1 &
VICTIM=$!
sleep 1
kill -9 "$VICTIM" 2> /dev/null

"$BIN" worker --connect "127.0.0.1:$PORT" --name w1 \
  > "$WORK/w1.log" 2>&1 &
W1=$!
"$BIN" worker --connect "127.0.0.1:$PORT" --name w2 \
  > "$WORK/w2.log" 2>&1 &
W2=$!

wait "$COORD"
wait "$W1"
wait "$W2"

echo "== drill: byte-identity and lease-expiry assertions"
cmp "$WORK/control/journal.jsonl" "$WORK/drill/journal.jsonl"
cmp "$WORK/control/results.json" "$WORK/drill/results.json"
python3 - "$WORK/BENCH_fleet.json" <<'EOF'
import json, sys
counters = json.load(open(sys.argv[1]))["metrics"]["counters"]
expired = counters["fleet.leases_expired"]
reissued = counters["fleet.leases_reissued"]
accepted = counters["fleet.records_accepted"]
assert expired >= 1, f"victim's lease must expire, got {expired}"
assert reissued >= 1, f"expired cells must be reissued, got {reissued}"
assert accepted == 8, f"all 8 cells must merge exactly once, got {accepted}"
print(f"drill telemetry: expired={expired} reissued={reissued} "
      f"accepted={accepted}")
EOF

echo "== fleet smoke: run --fleet 4"
mkdir -p "$WORK/fleet4-bench"
FTMC_BENCH_DIR="$WORK/fleet4-bench" "$BIN" run --spec "$WORK/spec.json" \
  --out "$WORK/fleet4" --threads 1 --fleet 4 --lease-cells 3 \
  > "$WORK/fleet4.log" 2>&1
cmp "$WORK/control/journal.jsonl" "$WORK/fleet4/journal.jsonl"
cmp "$WORK/control/results.json" "$WORK/fleet4/results.json"
# The four forked workers share one stderr; each summary line must
# arrive whole, not interleaved with another worker's.
summaries=$(grep -cE '^worker w[0-9]+: [0-9]+ cells over [0-9]+ leases in [^ ]+ s$' \
  "$WORK/fleet4.log" || true)
if [ "$summaries" -ne 4 ]; then
  echo "fleet4.log: expected 4 whole worker summary lines, got $summaries" >&2
  cat "$WORK/fleet4.log" >&2
  exit 1
fi

echo "== hand-off: run --max-cells 3, torn journal, finish with --fleet 2"
code=0
"$BIN" run --spec "$WORK/spec.json" --out "$WORK/handoff" --threads 1 \
  --max-cells 3 > "$WORK/handoff-run.log" 2>&1 || code=$?
test "$code" -eq 3  # clean stop before completion
printf '{"hash":"feedfeedfe' >> "$WORK/handoff/journal.jsonl"
mkdir -p "$WORK/handoff-bench"
FTMC_BENCH_DIR="$WORK/handoff-bench" "$BIN" run --spec "$WORK/spec.json" \
  --out "$WORK/handoff" --threads 1 --fleet 2 --lease-cells 2 \
  > "$WORK/handoff-fleet.log" 2>&1
cmp "$WORK/control/journal.jsonl" "$WORK/handoff/journal.jsonl"
cmp "$WORK/control/results.json" "$WORK/handoff/results.json"
python3 - "$WORK/handoff-bench/BENCH_fleet.json" <<'EOF'
import json, sys
counters = json.load(open(sys.argv[1]))["metrics"]["counters"]
bad = counters.get("campaign.journal_bad_lines")
hits = counters.get("campaign.cache_hits")
assert bad == 1, f"the torn line must be counted once, got {bad}"
assert hits == 3, f"the 3 journaled cells must be cache hits, got {hits}"
print(f"hand-off telemetry: journal_bad_lines={bad} cache_hits={hits}")
EOF

# The atomic-write path must leave no staging files behind anywhere.
test -z "$(find "$WORK" -name '*.tmp')"

echo "fleet drill: OK"
