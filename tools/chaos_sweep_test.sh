#!/usr/bin/env bash
# Chaos end-to-end test for the distributed sweep fabric: the sweep
# must stay byte-identical to a fault-free serial run while the
# network misbehaves underneath it and the processes themselves are
# killed (both injected through SVRSIM_FAULT, common/fault.hh).
#
#   1. serial fault-free reference artifact
#   2. lossy network              -> seeded drop/corrupt/delay schedule
#                                   over a 3-worker TCP sweep; leases
#                                   reclaimed, frames rejected by CRC,
#                                   artifact still byte-identical
#   3. full chaos                 -> lossy network + one worker SIGKILL
#                                   + one coordinator SIGKILL; a
#                                   restarted coordinator on the same
#                                   endpoint resumes from the journal
#                                   (orphaned workers' stale leases are
#                                   fenced) and finishes byte-identical
#   4. partition window           -> every send fails for a 1.2 s
#                                   window; workers back off, rejoin,
#                                   artifact still byte-identical
#
# Usage: chaos_sweep_test.sh <svrsim_sweep-binary> <scratch-dir>
set -eu

SWEEP=$1
DIR=$2
ARGS="--suite quick --configs ino,svr16 --window 10000"
PORT=$((21000 + $$ % 20000))

fail() { echo "FAIL: $*" >&2; exit 1; }

rm -rf "$DIR"
mkdir -p "$DIR"

echo "== step 1: serial fault-free reference artifact"
"$SWEEP" $ARGS --json --out "$DIR/ref.json" 2> /dev/null
[ -f "$DIR/ref.json" ] || fail "serial run wrote no JSON artifact"

echo "== step 2: lossy network (drop/corrupt/delay), 3 workers"
SVRSIM_FAULT='seed=7;drop=0.03;corrupt=0.02;delay=0.05/20;after=4' \
    "$SWEEP" $ARGS --json --workers 3 \
    --coordinator "tcp:127.0.0.1:$PORT" \
    --lease-timeout 8000 --heartbeat-ms 500 \
    --out "$DIR/lossy.json" 2> "$DIR/lossy.log"
grep -q "net-fault injector armed" "$DIR/lossy.log" ||
    fail "fault injector never armed"
cmp "$DIR/ref.json" "$DIR/lossy.json" ||
    fail "artifact differs under a lossy network"

echo "== step 3: lossy network + worker kill + coordinator kill"
PORT=$((PORT + 1))
rc=0
SVRSIM_FAULT='ckill@Camel/SVR16;kill@HJ8/SVR16;seed=11;drop=0.02;corrupt=0.01;after=4' \
    "$SWEEP" $ARGS --json --workers 3 \
    --coordinator "tcp:127.0.0.1:$PORT" \
    --lease-timeout 8000 --heartbeat-ms 500 \
    --out "$DIR/chaos.json" 2> "$DIR/chaos1.log" || rc=$?
[ "$rc" -ne 0 ] || fail "ckill'd coordinator run exited 0"
grep -q "injected coordinator kill" "$DIR/chaos1.log" ||
    fail "coordinator kill did not fire"
[ -f "$DIR/chaos.json.journal" ] ||
    fail "killed coordinator left no journal"
# Restart on the same endpoint under a fresh (still lossy) schedule:
# the journal is replayed, orphaned workers from run 1 may rejoin with
# their rejoin token (old-epoch results are fenced as STALE), and the
# sweep completes byte-identically.
SVRSIM_FAULT='seed=13;drop=0.02;after=4' \
    "$SWEEP" $ARGS --json --workers 3 \
    --coordinator "tcp:127.0.0.1:$PORT" --resume \
    --lease-timeout 8000 --heartbeat-ms 500 \
    --out "$DIR/chaos.json" 2> "$DIR/chaos2.log"
grep -q "restored from journal" "$DIR/chaos2.log" ||
    fail "restarted coordinator restored nothing"
cmp "$DIR/ref.json" "$DIR/chaos.json" ||
    fail "artifact differs after full chaos"

echo "== step 4: partition window, workers ride it out"
PORT=$((PORT + 1))
# Every reconnect cycle inside the window burns one attempt per
# leased cell, so the budget must cover the whole window.
SVRSIM_FAULT='seed=5;part=700+1200;after=2' \
    "$SWEEP" $ARGS --json --workers 2 --retries 12 \
    --coordinator "tcp:127.0.0.1:$PORT" \
    --lease-timeout 8000 --heartbeat-ms 500 \
    --out "$DIR/part.json" 2> "$DIR/part.log"
cmp "$DIR/ref.json" "$DIR/part.json" ||
    fail "artifact differs across a partition window"

rm -rf "$DIR"
echo "PASS: chaos sweep stays byte-identical to a fault-free serial run"
