#!/usr/bin/env bash
# Artifact matrix: write a fixed set of CLI outputs from one build, so that
# `diff -r` between the outputs of two builds (say, a parent commit and a
# change that must not move behaviour) proves they are identical.
#
# For each configuration it writes, into OUT_DIR:
#   NAME.table.txt       dmx_sweep / dmx_trace / dmx_verify stdout + stderr
#   NAME.manifest.json   the dmx.run.v1 manifest      (dmx_sweep only)
#   NAME.trace.jsonl     the JSONL event trace        (dmx_sweep only)
# and one "NAME EXIT_CODE" line per configuration in exit_codes.txt.  A
# configuration that exits non-zero is recorded, not a failure of the
# script: the quorum crash-stop stall and the takeover livelock exit 1 at
# the time of writing, and their diagnosis dumps are artifacts too, as is
# the usage error of a configuration dmx_sweep rejects (exit 2).  The
# script itself exits 1 if a configuration wrote no table at all.
#
# The tools run inside OUT_DIR with relative output names, so no path
# reaches an artifact and two OUT_DIRs compare byte for byte.
#
# Usage: scripts/artifact_matrix.sh BUILD_DIR OUT_DIR
#   e.g. scripts/artifact_matrix.sh build-parent /tmp/a
#        scripts/artifact_matrix.sh build /tmp/b
#        diff -r /tmp/a /tmp/b && echo identical
set -u

BUILD="${1:?usage: artifact_matrix.sh BUILD_DIR OUT_DIR}"
OUT="${2:?usage: artifact_matrix.sh BUILD_DIR OUT_DIR}"
BUILD="$(cd "$BUILD" && pwd)" || exit 2
SWEEP="$BUILD/tools/dmx_sweep"
TRACE="$BUILD/tools/dmx_trace"
VERIFY="$BUILD/tools/dmx_verify"
for tool in "$SWEEP" "$TRACE" "$VERIFY"; do
  if [ ! -x "$tool" ]; then
    echo "artifact matrix: $tool is not built" >&2
    exit 2
  fi
done
mkdir -p "$OUT" || exit 2
cd "$OUT" || exit 2
: > exit_codes.txt

# sweep NAME ARGS...: one dmx_sweep run with its table, manifest and trace.
sweep() {
  local name="$1"; shift
  "$SWEEP" --jobs 1 "$@" --emit-json "$name.manifest.json" \
    --trace-out "$name.trace.jsonl" > "$name.table.txt" 2>&1
  echo "$name $?" >> exit_codes.txt
}

# run NAME TOOL ARGS...: one dmx_trace / dmx_verify run, stdout + stderr.
run() {
  local name="$1" tool="$2"; shift 2
  "$tool" "$@" > "$name.table.txt" 2>&1
  echo "$name $?" >> exit_codes.txt
}

# --- dmx_sweep: the basic algorithm and its variants ------------------------
sweep tp_lambda --algo arbiter-tp --n 10 --lambda 0.1,0.5,2.0,8.0 \
  --requests 1500 --seeds 2
sweep sf_rotate --algo arbiter-tp-sf --n 7 --lambda 0.5,2.0 \
  --requests 1500 --seeds 2 --param rotate_monitor=1
sweep sf_tau1 --algo arbiter-tp-sf --n 7 --lambda 4 \
  --requests 1500 --seeds 2 --param tau=1
sweep seq_priority --algo arbiter-tp --n 7 --lambda 0.5,2.0 \
  --requests 1500 --seeds 2 --param sequenced=1 --param order=priority
sweep suppress_self --algo arbiter-tp --n 7 --lambda 0.5,4.0 \
  --requests 1500 --seeds 2 --param suppress_self_broadcast=1

# --- dmx_sweep: §6 recovery and the quorum guard ----------------------------
sweep recovery_crash_restart --algo arbiter-tp --n 5 --lambda 0.5 \
  --requests 1000 --seeds 2 --param recovery=1 \
  --fault "t=10 crash 2; t=30 restart 2"
sweep recovery_loss --algo arbiter-tp --n 5 --lambda 1.0 \
  --requests 1000 --seeds 2 --param recovery=1 \
  --loss REQUEST=0.02 --loss PRIVILEGE=0.02 --loss NEW-ARBITER=0.05
sweep quorum_partition_heal --algo arbiter-tp --n 5 --lambda 0.5 \
  --requests 1000 --seeds 2 --param recovery=1 --param recovery_quorum=1 \
  --fault "t=10 partition 0,1|2,3,4; t=40 heal"
sweep quorum_crash_stop --algo arbiter-tp --n 3 --lambda 0.5 \
  --requests 2000 --seeds 3 --param recovery=1 --param recovery_quorum=1 \
  --fault "t=20 crash 2"
sweep recovery_takeover_livelock --algo arbiter-tp --n 5 --lambda 1.0 \
  --requests 2000 --seeds 2 --param recovery=1 \
  --fault "t=5 crash 3; t=9 restart 3"
sweep reliable_loss --algo arbiter-tp --n 5 --lambda 1.0 \
  --requests 1000 --seeds 2 --transport reliable --loss PRIVILEGE=0.05 \
  --loss REQUEST=0.05
sweep sf_recovery_crash_restart --algo arbiter-tp-sf --n 5 --lambda 0.5 \
  --requests 1000 --seeds 2 --param recovery=1 \
  --fault "t=10 crash 2; t=30 restart 2"

# --- dmx_sweep: the sharded lock service ------------------------------------
# lockservice_smoke.sh's service run, then a configuration that is rejected
# before any output file is opened (no manifest, no trace).
sweep lockservice --resources 16 --zipf-s 0.9 --n 6 --lambda 2.0 \
  --requests 4000 --batch 8 --shard-algo hot=arbiter-tp,cold=path-reversal
sweep lockservice_bad_hot --resources 8 --shard-algo hot=nope

# --- dmx_trace: the scenarios in its header ---------------------------------
run trace_paper_walkthrough "$TRACE" --algo arbiter-tp --n 5 --unit-times \
  --submit 1:0 --submit 4:0.2 --submit 3:1.9
run trace_token_loss "$TRACE" --algo arbiter-tp --n 5 --param recovery=1 \
  --drop PRIVILEGE --submit 1:0 --submit 2:0.1
run trace_holder_crash "$TRACE" --n 5 --param recovery=1 --submit 1:0 \
  --crash 1:0.45

# --- dmx_verify: exhaustive N=3 worlds --------------------------------------
run verify_tp "$VERIFY" --algo arbiter-tp --n 3 --requests 1
run verify_tp_recovery "$VERIFY" --algo arbiter-tp --n 3 --requests 1 \
  --param recovery=1 --fault "t=0 crash 2"
run verify_sf "$VERIFY" --algo arbiter-tp-sf --n 3 --requests 1
run verify_sf_recovery "$VERIFY" --algo arbiter-tp-sf --n 3 --requests 1 \
  --param recovery=1 --fault "t=0 crash 1"

cat exit_codes.txt
status=0
while read -r name code; do
  if [ ! -s "$name.table.txt" ]; then
    echo "artifact matrix: $name wrote no table (exit $code)" >&2
    status=1
  fi
done < exit_codes.txt
exit "$status"
