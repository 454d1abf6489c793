#!/usr/bin/env bash
# Crash-recovery smoke test for the hdsd-serve daemon, exercising the
# release binary exactly as an operator would: run a reference session to
# completion, then run the same update stream durably, `kill -9` the
# daemon after three acked batches, restart it over the same directory
# (the three-record WAL tail is folded into one update), feed it the rest
# of the stream, and diff the κ answers against the uninterrupted
# reference. The tail is chosen to need the fold's care: [0,4] is inserted
# and later removed, and [0,9] grows the vertex set and is later removed
# (vertex 9 must survive). Mirrors the richer in-process assertions in
# crates/service/tests/{crash_recovery,wal_fold}.rs.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -p hdsd-service --bin hdsd-serve

BIN=./target/release/hdsd-serve
DIR=$(mktemp -d "${TMPDIR:-/tmp}/hdsd_crash_smoke.XXXXXX")
trap 'rm -rf "$DIR"' EXIT

ARGS=(--demo --spaces core,truss,34)

# The update stream, split at the crash point, and the probes whose
# answers must be identical with and without the crash.
FIRST_HALF='{"op":"update","insert":[[0,4],[1,4]],"remove":[[5,6]]}
{"op":"update","insert":[[0,9]],"remove":[[0,4]]}
{"op":"update","insert":[[2,6]],"remove":[[0,9]]}'
SECOND_HALF='{"op":"update","insert":[[0,7],[4,7],[1,7]]}
{"op":"update","remove":[[2,4]]}'
PROBES='{"op":"kappa","space":"core","id":0}
{"op":"kappa","space":"core","id":4}
{"op":"kappa","space":"core","id":6}
{"op":"kappa","space":"core","id":9}
{"op":"kappa","space":"truss","vertices":[0,1]}
{"op":"kappa","space":"34","vertices":[0,1,2]}
{"op":"nuclei","space":"34","k":1}'

probe_kappas() { # $1 = full session output → the probe replies only
  printf '%s\n' "$1" | grep -o '"kappa":[0-9]*\|"total":[0-9]*'
}

# 1. Reference: the whole stream in one uninterrupted process.
REF_OUT=$(printf '%s\n%s\n%s\n{"op":"shutdown"}\n' \
  "$FIRST_HALF" "$SECOND_HALF" "$PROBES" | "$BIN" "${ARGS[@]}")
REF=$(probe_kappas "$REF_OUT")
[ -n "$REF" ] || { echo "FAIL: reference session produced no probe answers"; exit 1; }

# 2. Durable run, killed -9 mid-stream. The daemon reads the first half,
#    acks all three batches (fsync always), then blocks on an open pipe
#    until SIGKILL — no drain, no checkpoint, no goodbye.
FIFO="$DIR/requests"
mkfifo "$FIFO"
"$BIN" "${ARGS[@]}" --durable "$DIR/state" --fsync always \
  < "$FIFO" > "$DIR/first.out" &
SERVE_PID=$!
exec 3> "$FIFO"
printf '%s\n' "$FIRST_HALF" >&3
# Wait until the last ack (with its wal_seq) is on disk, then kill without mercy.
for _ in $(seq 1 100); do
  grep -q '"wal_seq":3' "$DIR/first.out" 2>/dev/null && break
  sleep 0.1
done
grep -q '"wal_seq":3' "$DIR/first.out" || { echo "FAIL: first half never acked"; exit 1; }
kill -9 "$SERVE_PID" 2>/dev/null || true
wait "$SERVE_PID" 2>/dev/null || true
exec 3>&-

# 3. Restart over the same directory; finish the stream; probe.
REC_OUT=$(printf '%s\n%s\n{"op":"wal_stats"}\n{"op":"shutdown"}\n' \
  "$SECOND_HALF" "$PROBES" | "$BIN" "${ARGS[@]}" --durable "$DIR/state")
REC=$(probe_kappas "$REC_OUT")

printf '%s\n' "$REC_OUT" | grep -q '"snapshot_loaded":true' \
  || { echo "FAIL: restart did not load the checkpoint"; exit 1; }
printf '%s\n' "$REC_OUT" | grep -q '"replayed":3' \
  || { echo "FAIL: restart did not replay the three killed batches from the WAL"; exit 1; }

if [ "$REF" != "$REC" ]; then
  echo "FAIL: κ diverged after kill -9 + recovery"
  echo "--- reference:"; printf '%s\n' "$REF"
  echo "--- recovered:"; printf '%s\n' "$REC"
  exit 1
fi

echo "PASS: kill -9 mid-stream, WAL replay, and resumed updates serve identical κ"
