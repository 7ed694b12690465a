#!/usr/bin/env bash
# Kill-and-resume smoke for the standalone federation server.
#
# Runs an uninterrupted reference federation (server + 2 client
# processes over loopback TCP with the q8 codec), then repeats it with a
# SIGKILL delivered to the server mid-experiment and a restart from the
# checkpoint. Passes when:
#
#   1. telemetry_replay confirms the killed server's event log matches
#      the checkpoint it left behind,
#   2. the resumed server reports it restarted from the checkpoint, and
#   3. the final global model fingerprint is identical across the
#      reference run, the resumed server, and every client.
#
# Usage: scripts/server_smoke.sh [path-to-binaries]   (default target/release)
set -euo pipefail

BIN="${1:-target/release}"
ROUNDS=30
STEPS=800
CODEC=q8
CLIENTS=2
WORK="$(mktemp -d)"
cleanup() {
    # shellcheck disable=SC2046
    kill $(jobs -p) 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

pick_port() {
    "$BIN/fedpower-server" serve --clients 1 --rounds 0 --addr 127.0.0.1:0 \
        | sed -n 's/.*addr=127\.0\.0\.1:\([0-9]*\).*/\1/p'
}

start_clients() { # $1 = port, $2 = log tag
    for id in $(seq 0 $((CLIENTS - 1))); do
        "$BIN/fedpower-server" join --id "$id" --addr "127.0.0.1:$1" \
            --rounds $ROUNDS --steps $STEPS --codec $CODEC \
            --reconnect-ms 60000 > "$WORK/client_${id}_$2.log" &
    done
}

fnv() { sed -n 's/.*global_fnv=\([0-9a-f]*\).*/\1/p' "$1"; }

echo "== reference run (uninterrupted) =="
PORT=$(pick_port)
start_clients "$PORT" ref
"$BIN/fedpower-server" serve --clients $CLIENTS --rounds $ROUNDS --steps $STEPS \
    --codec $CODEC --addr "127.0.0.1:$PORT" \
    --checkpoint "$WORK/ref.fpck" --telemetry "jsonl:$WORK/ref.jsonl" \
    > "$WORK/server_ref.log"
wait
cat "$WORK/server_ref.log"
REF_FNV=$(fnv "$WORK/server_ref.log")
[ -n "$REF_FNV" ] || { echo "FAIL: reference run produced no fingerprint"; exit 1; }

echo "== replay check (uninterrupted log vs checkpoint) =="
"$BIN/telemetry_replay" "$WORK/ref.jsonl" "$WORK/ref.fpck"

echo "== interrupted run (SIGKILL mid-experiment, resume from checkpoint) =="
PORT=$(pick_port)
start_clients "$PORT" int
"$BIN/fedpower-server" serve --clients $CLIENTS --rounds $ROUNDS --steps $STEPS \
    --codec $CODEC --addr "127.0.0.1:$PORT" \
    --checkpoint "$WORK/int.fpck" --telemetry "jsonl:$WORK/int_killed.jsonl" \
    > "$WORK/server_killed.log" &
SRV=$!
# Kill as soon as the first checkpoint lands — deep inside the
# experiment, with later rounds still in flight. Poll often (60 s cap):
# on a fast host a round takes only a few milliseconds.
for _ in $(seq 1 6000); do
    [ -s "$WORK/int.fpck" ] && break
    sleep 0.01
done
[ -s "$WORK/int.fpck" ] || { echo "FAIL: no checkpoint appeared to kill at"; exit 1; }
kill -9 "$SRV" 2>/dev/null \
    || { echo "FAIL: server finished all $ROUNDS rounds before the kill landed"; exit 1; }
wait "$SRV" 2>/dev/null || true
echo "server killed after first checkpoint"

echo "== replay check (killed server's log vs its checkpoint) =="
"$BIN/telemetry_replay" "$WORK/int_killed.jsonl" "$WORK/int.fpck" | tee "$WORK/replay_killed.log"
KILLED_AT=$(sed -n 's/.*checkpoint at round \([0-9]*\).*/\1/p' "$WORK/replay_killed.log")
[ -n "$KILLED_AT" ] && [ "$KILLED_AT" -lt "$ROUNDS" ] \
    || { echo "FAIL: killed checkpoint is at round '$KILLED_AT', not before round $ROUNDS"; exit 1; }
echo "killed checkpoint is at round $KILLED_AT of $ROUNDS"

echo "== resumed server =="
"$BIN/fedpower-server" serve --clients $CLIENTS --rounds $ROUNDS --steps $STEPS \
    --codec $CODEC --addr "127.0.0.1:$PORT" \
    --checkpoint "$WORK/int.fpck" \
    > "$WORK/server_resumed.log"
wait
cat "$WORK/server_resumed.log"
grep -q "resumed from checkpoint" "$WORK/server_resumed.log" \
    || { echo "FAIL: resumed server did not restore the checkpoint"; exit 1; }
INT_FNV=$(fnv "$WORK/server_resumed.log")

echo "== verdict =="
echo "reference global_fnv=$REF_FNV  resumed global_fnv=$INT_FNV"
[ "$REF_FNV" = "$INT_FNV" ] \
    || { echo "FAIL: resumed run diverged from the uninterrupted run"; exit 1; }
for log in "$WORK"/client_*_ref.log "$WORK"/client_*_int.log; do
    C_FNV=$(fnv "$log")
    [ "$C_FNV" = "$REF_FNV" ] \
        || { echo "FAIL: $(basename "$log") holds $C_FNV, expected $REF_FNV"; exit 1; }
done
echo "PASS: kill-and-resume is bit-identical across server and $CLIENTS clients"
