#!/usr/bin/env bash
# Verification smoke: bounded exhaustive model checking of the N=3 worlds
# that CI can afford, plus a mutant-catch + replay round trip.  Run against
# a dmx_verify built with ASan/UBSan (the sanitizers CI job does).
#
#  1. arbiter-tp with recovery survives a crash choice at every reachable
#     state — zero violations, exploration complete.
#  2. suzuki-kasami fault-free is clean.
#  3. Exploration is deterministic: two runs print byte-identical output.
#  4. The seeded mutant-token-regen bug IS caught, its counterexample file
#     replays to the same violation, and two replay traces are
#     byte-identical.
#  5. path-reversal (Naimi–Trehel) is exhaustively clean at N=3 and N=4,
#     and clean behind the reliable transport under adversarial drops of
#     either of its message types.
#  6. The seeded mutant-no-reversal bug (skipped probable-owner flip) IS
#     caught as starvation and its counterexample replays byte-identically.
#
# Usage: scripts/verify_smoke.sh <path-to-dmx_verify>
set -u

VERIFY="${1:?usage: verify_smoke.sh <path-to-dmx_verify>}"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
FAILURES=0

echo "=== verify smoke: arbiter-tp + recovery, one crash fault"
if out=$("$VERIFY" --algo arbiter-tp --n 3 --requests 1 \
         --param recovery=1 --fault "t=0 crash 2" 2>&1); then
  echo "$out" | sed -n '2,5p'
  echo "ok: arbiter survives every crash schedule"
else
  echo "$out"
  echo "FAIL: arbiter-tp with recovery violated an invariant (or capped)"
  FAILURES=$((FAILURES + 1))
fi
echo

echo "=== verify smoke: suzuki-kasami fault-free"
if out=$("$VERIFY" --algo suzuki-kasami --n 3 --requests 1 2>&1); then
  echo "$out" | sed -n '2,5p'
  echo "ok: suzuki-kasami clean"
else
  echo "$out"
  echo "FAIL: suzuki-kasami fault-free violated an invariant"
  FAILURES=$((FAILURES + 1))
fi
echo

echo "=== verify smoke: determinism (two identical explorations)"
"$VERIFY" --algo arbiter-tp --n 3 --requests 1 > "$WORK/run1.txt" 2>&1
"$VERIFY" --algo arbiter-tp --n 3 --requests 1 > "$WORK/run2.txt" 2>&1
if cmp -s "$WORK/run1.txt" "$WORK/run2.txt"; then
  echo "ok: byte-identical schedules/pruned counts across runs"
else
  echo "FAIL: exploration output differs between identical runs"
  diff "$WORK/run1.txt" "$WORK/run2.txt" | head -10
  FAILURES=$((FAILURES + 1))
fi
echo

echo "=== verify smoke: quorum-guarded recovery matrix (crash / restart / lose-next)"
# The quorum guard (--quorum) must stay exhaustively clean across the fault
# matrix.  Slack 0 keeps the N=4 cells tractable; the crash+restart cell
# exceeds the exhaustive budget at N=4 and is pinned at N=3 instead.
#
# Every cell passes its golden "schedules explored:" line and fails on any
# drift, like the pinned counts in tests/test_verify.cpp: a changed count
# means the schedule space (or the pruning) changed and must be re-derived
# on purpose.  The N=4 crash count includes 497472 schedules cut at the
# depth bound; it moves only when the verdict on such cut schedules does.
# Those cut schedules hide a known liveness hole: a crashed node that the
# freshest dispatch views name as a possible holder never replies, so the
# guard parks until it restarts (the survivors stall for good under a
# crash-stop).  ROADMAP's first open item tracks the fix.
run_matrix_cell() {
  local label="$1" expect="$2"; shift 2
  if ! out=$("$VERIFY" "$@" 2>&1); then
    echo "$out"
    echo "FAIL: $label violated an invariant (or capped)"
    FAILURES=$((FAILURES + 1))
    return
  fi
  local got
  got=$(echo "$out" | sed -n 's/^schedules explored: //p')
  if [ "$got" = "$expect" ]; then
    echo "ok: $label ($got)"
  else
    echo "$out"
    echo "FAIL: $label explored \"$got\", pinned \"$expect\""
    FAILURES=$((FAILURES + 1))
  fi
}
run_matrix_cell "N=4 crash" \
  "830220 (terminal 1340, truncated 497472, sleep-blocked 331408)" \
  --algo arbiter-tp --n 4 --requests 1 --quorum --slack 0 \
  --fault "t=0 crash 3"
run_matrix_cell "N=4 lose-next PRIVILEGE" \
  "80569 (terminal 18906, truncated 0, sleep-blocked 61663)" \
  --algo arbiter-tp --n 4 --requests 1 --quorum --slack 0 \
  --fault "t=0 lose-next PRIVILEGE"
run_matrix_cell "N=3 crash + restart" \
  "123686 (terminal 40732, truncated 12169, sleep-blocked 70785)" \
  --algo arbiter-tp --n 3 --requests 1 --quorum --slack 0 \
  --fault "t=0 crash 1; t=1 restart 1"
echo

echo "=== verify smoke: path-reversal exhaustive worlds (clean + reliable)"
run_matrix_cell "path-reversal N=3" \
  "20 (terminal 10, truncated 0, sleep-blocked 10)" \
  --algo path-reversal --n 3 --requests 1
run_matrix_cell "path-reversal N=4" \
  "168 (terminal 102, truncated 0, sleep-blocked 66)" \
  --algo path-reversal --n 4 --requests 1
run_matrix_cell "path-reversal N=3 reliable, lose-next PR-REQUEST" \
  "100 (terminal 30, truncated 0, sleep-blocked 70)" \
  --algo path-reversal --n 3 --requests 1 --reliable --slack 0 \
  --fault "t=0 lose-next PR-REQUEST"
run_matrix_cell "path-reversal N=3 reliable, lose-next PR-TOKEN" \
  "30 (terminal 18, truncated 0, sleep-blocked 12)" \
  --algo path-reversal --n 3 --requests 1 --reliable --slack 0 \
  --fault "t=0 lose-next PR-TOKEN"
echo

echo "=== verify smoke: mutant-no-reversal catch + counterexample replay"
"$VERIFY" --algo mutant-no-reversal --n 3 --requests 1 \
  --cex-out "$WORK/norev.cex" > "$WORK/norev.txt" 2>&1
status=$?
if [ "$status" -ne 1 ] || ! grep -q "VIOLATION starvation" "$WORK/norev.txt"; then
  cat "$WORK/norev.txt"
  echo "FAIL: seeded mutant-no-reversal bug was not caught (exit $status)"
  FAILURES=$((FAILURES + 1))
else
  if "$VERIFY" --replay "$WORK/norev.cex" \
       --trace-out "$WORK/nr1.jsonl" > /dev/null 2>&1 \
     && "$VERIFY" --replay "$WORK/norev.cex" \
       --trace-out "$WORK/nr2.jsonl" > /dev/null 2>&1 \
     && cmp -s "$WORK/nr1.jsonl" "$WORK/nr2.jsonl"; then
    echo "ok: mutant-no-reversal starves, counterexample replays byte-identically"
  else
    echo "FAIL: mutant-no-reversal counterexample did not replay byte-identically"
    FAILURES=$((FAILURES + 1))
  fi
fi
echo

echo "=== verify smoke: mutant catch + counterexample replay"
"$VERIFY" --algo mutant-token-regen --n 3 --requests 1 \
  --cex-out "$WORK/regen.cex" > "$WORK/mutant.txt" 2>&1
status=$?
if [ "$status" -ne 1 ] || ! grep -q "VIOLATION mutual-exclusion" "$WORK/mutant.txt"; then
  cat "$WORK/mutant.txt"
  echo "FAIL: seeded mutant-token-regen bug was not caught (exit $status)"
  FAILURES=$((FAILURES + 1))
else
  if "$VERIFY" --replay "$WORK/regen.cex" \
       --trace-out "$WORK/t1.jsonl" > /dev/null 2>&1 \
     && "$VERIFY" --replay "$WORK/regen.cex" \
       --trace-out "$WORK/t2.jsonl" > /dev/null 2>&1 \
     && cmp -s "$WORK/t1.jsonl" "$WORK/t2.jsonl"; then
    echo "ok: mutant caught, counterexample replays byte-identically"
  else
    echo "FAIL: counterexample did not replay byte-identically"
    FAILURES=$((FAILURES + 1))
  fi
fi
echo

if [ "$FAILURES" -ne 0 ]; then
  echo "verify smoke: ${FAILURES} failure(s)"
  exit 1
fi
echo "verify smoke: bounded model checking clean, mutants caught"
