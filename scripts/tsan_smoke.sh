#!/usr/bin/env bash
# TSan smoke: an 8-job Fig. 6 mini-sweep under ThreadSanitizer, doubling as
# a determinism check — for each of the figure's three algorithms the
# parallel table must be byte-identical to the serial one.  Then the
# lock-service fan-out (lockservice_smoke.sh's service run), where every
# shard builds its mutex::MutexCluster on a worker thread: --jobs 4 must
# print exactly what --jobs 1 prints.  Run against a dmx_sweep built with
# -fsanitize=thread (the tsan CI job does); any data race between the
# pooled simulation workers aborts the run.
#
# Usage: scripts/tsan_smoke.sh <path-to-dmx_sweep>
set -u

SWEEP="${1:?usage: tsan_smoke.sh <path-to-dmx_sweep>}"
FAILURES=0

# Reduced Fig. 6 grid: light / knee / saturation, enough seeds that every
# one of the 8 workers gets work.
LAMBDAS="0.02,0.2,0.5"
COMMON=(--n 10 --lambda "$LAMBDAS" --requests 2000 --seeds 8)

for algo in arbiter-tp ricart-agrawala singhal; do
  echo "=== tsan smoke: ${algo} (fig6 mini-sweep, --jobs 8 vs --jobs 1)"
  if ! serial=$("$SWEEP" --algo "$algo" "${COMMON[@]}" --jobs 1 2>&1); then
    echo "$serial"
    echo "FAIL: ${algo} serial sweep did not run clean"
    FAILURES=$((FAILURES + 1))
    continue
  fi
  if ! parallel=$("$SWEEP" --algo "$algo" "${COMMON[@]}" --jobs 8 2>&1); then
    echo "$parallel"
    echo "FAIL: ${algo} 8-job sweep did not run clean (race or unsound run)"
    FAILURES=$((FAILURES + 1))
    continue
  fi
  if [ "$serial" != "$parallel" ]; then
    echo "FAIL: ${algo} --jobs 8 output differs from --jobs 1"
    diff <(echo "$serial") <(echo "$parallel") | head -20
    FAILURES=$((FAILURES + 1))
  else
    echo "$parallel" | sed -n '1,4p'
    echo "ok: ${algo} byte-identical across jobs"
  fi
  echo
done

SERVICE=(--resources 16 --zipf-s 0.9 --n 6 --lambda 2.0 --requests 4000 \
         --batch 8 --shard-algo hot=arbiter-tp,cold=path-reversal)
echo "=== tsan smoke: lock-service fan-out (--jobs 4 vs --jobs 1)"
if ! serial=$("$SWEEP" "${SERVICE[@]}" --jobs 1 2>&1); then
  echo "$serial"
  echo "FAIL: serial lock-service run did not run clean"
  FAILURES=$((FAILURES + 1))
elif ! parallel=$("$SWEEP" "${SERVICE[@]}" --jobs 4 2>&1); then
  echo "$parallel"
  echo "FAIL: 4-job lock-service run did not run clean (race or unsound run)"
  FAILURES=$((FAILURES + 1))
elif [ "$serial" != "$parallel" ]; then
  echo "FAIL: lock-service --jobs 4 output differs from --jobs 1"
  diff <(echo "$serial") <(echo "$parallel") | head -20
  FAILURES=$((FAILURES + 1))
else
  echo "ok: lock-service shards byte-identical across jobs"
fi
echo

if [ "$FAILURES" -ne 0 ]; then
  echo "tsan smoke: ${FAILURES} failure(s)"
  exit 1
fi
echo "tsan smoke: fig6 mini-sweep and lock-service fan-out clean and" \
     "deterministic"
