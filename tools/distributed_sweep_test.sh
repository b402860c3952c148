#!/usr/bin/env bash
# End-to-end test for the distributed sweep fabric:
#
#   1. serial reference run      -> JSON + CSV artifacts, no journal left
#   2. --workers 3               -> both artifacts byte-identical to serial
#   3. --workers 3 + SVRSIM_FAULT=kill@.. -> one worker SIGKILLs itself
#                                   mid-sweep; the lease is reassigned /
#                                   the worker respawned and the artifact
#                                   still matches byte for byte
#   4. serial crash + fabric --resume -> journaled cells restored into
#                                   the fabric run, artifact identical
#   5. --shards                  -> a journal shard from another run is
#                                   merged as completed cells
#   6. tcp loopback              -> same result over the TCP transport
#   7. fail-fast worker error    -> coordinator aborts with exit 1 and
#                                   the worker's error code, no artifact
#   8. coordinator SIGKILL + restart -> SVRSIM_FAULT=ckill@.. kills the
#                                   coordinator right after it journals
#                                   a cell; a restarted coordinator on
#                                   the same endpoint resumes from the
#                                   journal and the artifact still
#                                   matches byte for byte
#   9. one ledger                -> a serial run and a 3-worker run kept
#                                   with --keep-journal hold the same set
#                                   of journal records (both engines
#                                   record cells through one ledger)
#
# Usage: distributed_sweep_test.sh <svrsim_sweep-binary> <scratch-dir>
set -eu

SWEEP=$1
DIR=$2
ARGS="--suite quick --configs ino,svr16 --window 10000"

fail() { echo "FAIL: $*" >&2; exit 1; }

rm -rf "$DIR"
mkdir -p "$DIR"

echo "== step 1: serial reference artifacts (JSON and CSV)"
"$SWEEP" $ARGS --json --out "$DIR/ref.json" 2> /dev/null
"$SWEEP" $ARGS --out "$DIR/ref.csv" 2> /dev/null
[ -f "$DIR/ref.json" ] || fail "serial run wrote no JSON artifact"
[ ! -f "$DIR/ref.json.journal" ] || fail "serial run left its journal"

echo "== step 2: 3-worker fabric run matches byte for byte"
"$SWEEP" $ARGS --json --workers 3 --out "$DIR/fab.json" 2> "$DIR/fab.log"
cmp "$DIR/ref.json" "$DIR/fab.json" ||
    fail "fabric JSON differs from the serial run"
[ ! -f "$DIR/fab.json.journal" ] || fail "fabric run left its journal"
grep -q "worker 3 joined" "$DIR/fab.log" ||
    fail "fabric run did not get 3 workers"
"$SWEEP" $ARGS --workers 3 --out "$DIR/fab.csv" 2> /dev/null
cmp "$DIR/ref.csv" "$DIR/fab.csv" ||
    fail "fabric CSV differs from the serial run"

echo "== step 3: worker SIGKILLed mid-sweep, output still identical"
# Auto-sized leases hold whole rows, so the worker dies after the first
# cell of its Camel lease, holding the second: that cell is reassigned.
SVRSIM_FAULT='kill@Camel/InO' \
    "$SWEEP" $ARGS --json --workers 3 --out "$DIR/kill.json" \
    2> "$DIR/kill.log"
grep -q "injected kill" "$DIR/kill.log" ||
    fail "kill fault did not fire in any worker"
grep -Eq "respawning|reassigning" "$DIR/kill.log" ||
    fail "coordinator never noticed the dead worker"
cmp "$DIR/ref.json" "$DIR/kill.json" ||
    fail "artifact differs after a worker death"

echo "== step 4: fabric --resume from a serial crash journal"
rc=0
SVRSIM_FAULT='kill@CC_TW/SVR16' \
    "$SWEEP" $ARGS --json --out "$DIR/res.json" 2> /dev/null || rc=$?
[ "$rc" -ne 0 ] || fail "killed serial run exited 0"
[ -f "$DIR/res.json.journal" ] || fail "killed run left no journal"
"$SWEEP" $ARGS --json --workers 3 --resume --out "$DIR/res.json" \
    2> "$DIR/res.log"
grep -q "restored from journal" "$DIR/res.log" ||
    fail "fabric resume restored nothing"
cmp "$DIR/ref.json" "$DIR/res.json" ||
    fail "fabric-resumed artifact differs from the serial run"

echo "== step 5: journal shard merged as completed cells"
SVRSIM_FAULT='kill@CC_TW/SVR16' \
    "$SWEEP" $ARGS --json --out "$DIR/shard.json" 2> /dev/null || true
mv "$DIR/shard.json.journal" "$DIR/shard.journal"
"$SWEEP" $ARGS --json --workers 2 --shards "$DIR/shard.journal" \
    --out "$DIR/merged.json" 2> "$DIR/shard.log"
grep -q "restored from" "$DIR/shard.log" || fail "shard restored nothing"
cmp "$DIR/ref.json" "$DIR/merged.json" ||
    fail "shard-merged artifact differs from the serial run"

echo "== step 6: tcp loopback transport"
"$SWEEP" $ARGS --json --workers 2 --coordinator tcp:127.0.0.1:0 \
    --out "$DIR/tcp.json" 2> /dev/null
cmp "$DIR/ref.json" "$DIR/tcp.json" ||
    fail "tcp-transport artifact differs from the serial run"

echo "== step 7: fail-fast worker error aborts the whole sweep"
rc=0
SVRSIM_FAULT='throw@CC_TW/SVR16' \
    "$SWEEP" $ARGS --json --workers 3 --out "$DIR/ff.json" \
    2> "$DIR/ff.log" || rc=$?
[ "$rc" -eq 1 ] || fail "fail-fast fabric run exited $rc, expected 1"
[ ! -f "$DIR/ff.json" ] || fail "fail-fast fabric run wrote an artifact"
grep -q "InternalInvariant" "$DIR/ff.log" ||
    fail "coordinator lost the worker's error code"

echo "== step 8: coordinator SIGKILLed mid-sweep, restart resumes"
PORT=$((20000 + $$ % 20000))
rc=0
SVRSIM_FAULT='ckill@Camel/SVR16' \
    "$SWEEP" $ARGS --json --workers 2 \
    --coordinator "tcp:127.0.0.1:$PORT" --out "$DIR/ck.json" \
    2> "$DIR/ck1.log" || rc=$?
[ "$rc" -ne 0 ] || fail "ckill'd coordinator run exited 0"
grep -q "injected coordinator kill" "$DIR/ck1.log" ||
    fail "coordinator kill did not fire"
[ -f "$DIR/ck.json.journal" ] || fail "killed coordinator left no journal"
# Restart on the same endpoint: the journal is replayed, orphaned
# workers from run 1 may rejoin (their old-epoch leases are fenced),
# and the sweep finishes byte-identically.
"$SWEEP" $ARGS --json --workers 2 \
    --coordinator "tcp:127.0.0.1:$PORT" --resume --out "$DIR/ck.json" \
    2> "$DIR/ck2.log"
grep -q "restored from journal" "$DIR/ck2.log" ||
    fail "restarted coordinator restored nothing"
cmp "$DIR/ref.json" "$DIR/ck.json" ||
    fail "artifact differs after a coordinator crash + restart"

echo "== step 9: serial and fabric journals hold the same records"
"$SWEEP" $ARGS --json --keep-journal --out "$DIR/lser.json" 2> /dev/null
"$SWEEP" $ARGS --json --workers 3 --keep-journal --out "$DIR/lfab.json" \
    2> /dev/null
[ -f "$DIR/lser.json.journal" ] || fail "serial run dropped its journal"
[ -f "$DIR/lfab.json.journal" ] || fail "fabric run dropped its journal"
sort "$DIR/lser.json.journal" > "$DIR/lser.sorted"
sort "$DIR/lfab.json.journal" > "$DIR/lfab.sorted"
cmp "$DIR/lser.sorted" "$DIR/lfab.sorted" ||
    fail "serial and fabric journals hold different records"

rm -rf "$DIR"
echo "PASS: distributed sweep fabric is byte-identical to serial"
