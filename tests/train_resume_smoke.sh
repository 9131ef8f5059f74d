#!/usr/bin/env bash
# End-to-end training resume smoke for bench_fig8b_learning_curve
# (DESIGN.md §9), at the bench's default flags:
#
#   1. SIGTERM during imitation: the run checkpoints the imitation phase and
#      exits 0 with "stop requested"; --resume restores into imitation.
#   2. SIGTERM during REINFORCE: the same, and --resume skips imitation.
#
# After each resume the CSV must equal the committed fig8b_learning_curve.csv
# byte for byte.  The signal is sent once a checkpoint generation of the
# target phase exists.  Imitation lasts only tens of milliseconds, so a
# signal that lands after it is re-aimed (at most three tries).
#
# Usage: train_resume_smoke.sh <bench_fig8b_learning_curve> <fig8b_learning_curve.csv>

set -u

BENCH="${1:?usage: train_resume_smoke.sh <bench_fig8b_learning_curve> <golden csv>}"
GOLDEN="${2:?usage: train_resume_smoke.sh <bench_fig8b_learning_curve> <golden csv>}"
BENCH="$(cd "$(dirname "$BENCH")" && pwd)/$(basename "$BENCH")"
GOLDEN="$(cd "$(dirname "$GOLDEN")" && pwd)/$(basename "$GOLDEN")"
WORKDIR="$(mktemp -d)"
BPID=""
trap '[ -n "$BPID" ] && kill "$BPID" 2>/dev/null; rm -rf "$WORKDIR"' EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }

# Starts a checkpointing run in the cwd and sends SIGTERM once the log shows
# a saved generation of <phase>.  Sets STOPPED_IN to the phase the run
# checkpointed when it stopped.
stop_during() {  # <phase>
  rm -rf ck fig8b_learning_curve.csv
  "$BENCH" --checkpoint-dir ck >first.out 2>first.err &
  BPID=$!
  while kill -0 "$BPID" 2>/dev/null &&
      ! grep -q "saved generation [0-9]* ($1," first.err; do
    sleep 0.001
  done
  kill -TERM "$BPID" 2>/dev/null
  wait "$BPID"
  local rc=$?
  BPID=""
  [ "$rc" -eq 0 ] || { cat first.err >&2; fail "stopped run exited $rc"; }
  grep -q "stop requested" first.out || { cat first.out >&2; fail "no stop requested"; }
  STOPPED_IN="$(sed -n 's/^stop requested; checkpointing \([a-z]*\) .*/\1/p' first.out)"
  sed -n 's/^stop requested; //p' first.out
}

resume_and_compare() {  # <label>
  "$BENCH" --checkpoint-dir ck --resume >second.out 2>second.err ||
    { cat second.err >&2; fail "$1: resumed run failed"; }
  grep -q "resuming from checkpoint generation" second.out ||
    fail "$1: resumed run did not load a checkpoint"
  cmp fig8b_learning_curve.csv "$GOLDEN" || fail "$1: CSV differs from $GOLDEN"
  echo "$1 OK"
}

echo "=== SIGTERM during imitation ==="
mkdir "$WORKDIR/imitation" && cd "$WORKDIR/imitation" || exit 1
for try in 1 2 3; do
  stop_during imitation
  [ "$STOPPED_IN" = imitation ] && break
  echo "try $try: the signal landed in $STOPPED_IN; re-aiming"
done
[ "$STOPPED_IN" = imitation ] || fail "never stopped inside imitation"
resume_and_compare "imitation resume"

echo "=== SIGTERM during REINFORCE ==="
mkdir "$WORKDIR/reinforce" && cd "$WORKDIR/reinforce" || exit 1
stop_during reinforce
[ "$STOPPED_IN" = reinforce ] || fail "stopped in '$STOPPED_IN', not reinforce"
resume_and_compare "REINFORCE resume"

echo "PASS: train resume smoke"
