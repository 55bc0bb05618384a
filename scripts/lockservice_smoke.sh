#!/usr/bin/env bash
# Lock-service smoke: the sharded Zipf scenario end to end on real binaries.
# Run against ASan builds (the sanitizers CI job does).
#
#  1. dmx_sweep --resources runs a small Zipf-skewed lock service, exits 0,
#     prints the per-shard SLO table, and the dmx.run.v1 manifest validates
#     with jq: lock_service block present, every shard drained with zero
#     safety violations, both shard algorithms exercised, and the p99 /
#     fairness SLO fields populated.
#  2. The same run with --jobs 4 produces a BYTE-IDENTICAL manifest and
#     stdout: the shard fan-out is an execution knob, not a result knob.
#  3. bench/table_lockservice runs a small ladder, exits 0 (soundness gate:
#     byte-identity + mixed algorithms + drains + zero violations), and its
#     DMX_BENCH_JSONL output validates with jq.
#
# Usage: scripts/lockservice_smoke.sh <path-to-dmx_sweep> <path-to-table_lockservice>
set -u

SWEEP="${1:?usage: lockservice_smoke.sh <dmx_sweep> <table_lockservice>}"
BENCH="${2:?usage: lockservice_smoke.sh <dmx_sweep> <table_lockservice>}"
if ! command -v jq > /dev/null 2>&1; then
  echo "lockservice smoke: jq is required to validate the manifests" >&2
  exit 1
fi
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
FAILURES=0

SERVICE=(--resources 16 --zipf-s 0.9 --n 6 --lambda 2.0 --requests 4000 \
         --shard-algo hot=arbiter-tp,cold=path-reversal)

echo "=== lockservice smoke: Zipf service run + manifest validation"
if "$SWEEP" "${SERVICE[@]}" --jobs 1 --emit-json "$WORK/serial.json" \
     > "$WORK/serial.txt" 2>&1; then
  echo "ok: service drained with zero safety violations (exit 0)"
else
  cat "$WORK/serial.txt"
  echo "FAIL: lock-service run failed"
  FAILURES=$((FAILURES + 1))
fi
if grep -q "grant p99" "$WORK/serial.txt"; then
  echo "ok: per-shard SLO table rendered"
else
  echo "FAIL: stdout is missing the per-shard SLO table"
  FAILURES=$((FAILURES + 1))
fi
check_jq() {
  local label="$1" filter="$2"
  if [ "$(jq "$filter" "$WORK/serial.json" 2>/dev/null)" = "true" ]; then
    echo "ok: $label"
  else
    echo "FAIL: $label"
    FAILURES=$((FAILURES + 1))
  fi
}
if [ -s "$WORK/serial.json" ]; then
  check_jq "dmx.run.v1 envelope" '.schema == "dmx.run.v1"'
  check_jq "lock-service config serialized" \
    '.runs[0].config | .n_resources == 16 and .zipf_s == 0.9 and
       .shard_algo_hot == "arbiter-tp" and .shard_algo_cold == "path-reversal"'
  check_jq "lock_service block with one shard per resource" \
    '.runs[0].result.lock_service.shards | length == 16'
  check_jq "every shard drained, zero safety violations" \
    '.runs[0].result.lock_service
       | .drained and .safety_violations == 0
         and (.shards | all(.drained and .completed == .demand))'
  check_jq "both shard algorithms exercised" \
    '.runs[0].result.lock_service
       | .hot_shards >= 1 and .hot_shards < (.shards | length)'
  check_jq "p99 / fairness SLO fields populated" \
    '.runs[0].result.lock_service
       | .grant_p99_worst > 0 and .fairness_min > 0 and .fairness_min <= 1
         and (.shards[0] | .grant_p99 >= .grant_p50 and .grant_p50 > 0)'
else
  echo "FAIL: run wrote no manifest"
  FAILURES=$((FAILURES + 1))
fi
echo

echo "=== lockservice smoke: --jobs fan-out is byte-identical"
if "$SWEEP" "${SERVICE[@]}" --jobs 4 --emit-json "$WORK/jobs4.json" \
     > "$WORK/jobs4.txt" 2>&1 \
   && cmp -s "$WORK/serial.json" "$WORK/jobs4.json" \
   && cmp -s "$WORK/serial.txt" "$WORK/jobs4.txt"; then
  echo "ok: --jobs 1 and --jobs 4 manifests and tables match byte for byte"
else
  echo "FAIL: --jobs changed the results (manifest or stdout differs)"
  FAILURES=$((FAILURES + 1))
fi
echo

echo "=== lockservice smoke: table_lockservice ladder + JSONL validation"
JSONL="$WORK/ladder.jsonl"
if DMX_BENCH_LS_RESOURCES=64 DMX_BENCH_REQUESTS=5000 DMX_BENCH_JOBS=2 \
     DMX_BENCH_JSONL="$JSONL" "$BENCH" > "$WORK/bench.txt" 2>&1; then
  echo "ok: ladder soundness gate passed"
else
  cat "$WORK/bench.txt"
  echo "FAIL: table_lockservice soundness gate failed"
  FAILURES=$((FAILURES + 1))
fi
if [ -s "$JSONL" ]; then
  if [ "$(jq -s 'all(.byte_identical and .drained
                     and .safety_violations == 0
                     and .hot_shards >= 1
                     and .grant_p99_worst >= .grant_p99_hot0)' \
            "$JSONL" 2>/dev/null)" = "true" ]; then
    echo "ok: every rung byte-identical, drained, safe, mixed"
  else
    echo "FAIL: ladder JSONL violates the soundness invariants"
    FAILURES=$((FAILURES + 1))
  fi
else
  echo "FAIL: ladder wrote no JSONL output"
  FAILURES=$((FAILURES + 1))
fi
echo

if [ "$FAILURES" -ne 0 ]; then
  echo "lockservice smoke: ${FAILURES} failure(s)"
  exit 1
fi
echo "lockservice smoke: service validated, fan-out deterministic, ladder sound"
