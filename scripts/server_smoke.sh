#!/usr/bin/env bash
# Server smoke check: for each of --system pool, ght and central, boot
# poolnetd on an ephemeral port, drive it with server_load over real
# sockets (2 connections x 100 range queries, then 2 x 50 mixed-class
# ones), verify every streamed result is byte-identical to direct
# execution on server_load's own Backend, then SIGTERM the daemon and
# require a clean drain (exit 0 within a bounded wait). The central round
# serves ~1.8 MB bare-SELECT answers and keeps a raw client connected
# that pipelines 16 of them and never reads: the load must still be
# served, and the drain must still finish. Exits nonzero on any
# violation.
#
#   scripts/server_smoke.sh [build-dir]
set -euo pipefail

BUILD="${1:-build}"
DAEMON="$BUILD/apps/poolnetd"
LOAD="$BUILD/bench/server_load"

for bin in "$DAEMON" "$LOAD"; do
  if [[ ! -x "$bin" ]]; then
    echo "error: $bin not built (cmake -B $BUILD && cmake --build $BUILD)" >&2
    exit 1
  fi
done

SCRATCH="$(mktemp -d)"
DAEMON_PID=""
STUCK_PID=""
# A failing check exits early (set -e): never leave a process behind.
cleanup() {
  if [[ -n "$DAEMON_PID" ]]; then kill "$DAEMON_PID" 2>/dev/null || true; fi
  if [[ -n "$STUCK_PID" ]]; then kill "$STUCK_PID" 2>/dev/null || true; fi
  rm -rf "$SCRATCH"
}
trap cleanup EXIT

# stuck_client <port>: a raw connection with a 4 KiB receive buffer that
# pipelines 16 bare SELECT frames and then never reads (until killed).
stuck_client() {
  python3 - "$1" <<'PY' &
import socket, struct, sys, time
s = socket.socket()
s.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
s.connect(("127.0.0.1", int(sys.argv[1])))
# One write: the daemon stops reading this socket once it owes it
# output, so all 16 statements must arrive before the first answer.
s.sendall(b"".join(struct.pack("<IBQ", 1 + 8 + 6, 1, request_id) + b"SELECT"
                   for request_id in range(1, 17)))
time.sleep(3600)
PY
  STUCK_PID=$!
}

# smoke <system> <range-json> <mix-json> [stuck]: one daemon, two load
# runs, one drain check. With "stuck" the deployment grows to 400 nodes x
# 100 events, so a bare SELECT answers with ~1.8 MB, and a never-reading
# client stays connected throughout.
smoke() {
  local system="$1" range_json="$2" mix_json="$3" stuck="${4:-}"
  local log="$SCRATCH/poolnetd_$system.log"
  local nodes=300 epn=3 connections=4 queries=300
  if [[ "$stuck" == stuck ]]; then
    nodes=400
    epn=100
  fi

  # The backend flags here MUST match server_load's below — identical
  # construction is what makes the cross-process byte comparison valid.
  "$DAEMON" --system "$system" --nodes "$nodes" --dims 3 \
    --events-per-node "$epn" --seed 1 --batch 16 --port 0 > "$log" 2>&1 &
  DAEMON_PID=$!
  local pid=$DAEMON_PID

  # The ephemeral port appears on the "listening on" line once the
  # testbed is deployed.
  local port=""
  for _ in $(seq 1 120); do
    port="$(sed -n 's/^poolnetd: listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
      "$log")"
    [[ -n "$port" ]] && break
    if ! kill -0 "$pid" 2>/dev/null; then
      echo "error: poolnetd --system $system died during startup:" >&2
      cat "$log" >&2
      exit 1
    fi
    sleep 0.5
  done
  if [[ -z "$port" ]]; then
    echo "error: poolnetd --system $system never reported its port:" >&2
    cat "$log" >&2
    exit 1
  fi
  echo "server_smoke: poolnetd --system $system up on port $port"

  if [[ "$stuck" == stuck ]]; then
    stuck_client "$port"
    # Its 16 answers are queued for it: one more connection and 16 more
    # results in the daemon's summary.
    connections=5
    queries=316
  fi

  "$LOAD" --connect "127.0.0.1:$port" --connections 2 --queries 100 \
    --system "$system" --nodes "$nodes" --dims 3 --events-per-node "$epn" \
    --seed 1 --batch 16 --json "$range_json"

  # The query classes over the same live daemon: mixed SELECT SKYLINE /
  # SELECT NEAREST / range statements, every reply byte-checked against
  # direct execution on an identically-built backend.
  "$LOAD" --connect "127.0.0.1:$port" --connections 2 --queries 50 \
    --system "$system" --nodes "$nodes" --dims 3 --events-per-node "$epn" \
    --seed 1 --batch 16 --query-class mix --json "$mix_json"

  # Clean drain: SIGTERM must answer everything in flight and exit 0 —
  # within a bounded wait, even with the never-reading client connected.
  kill -TERM "$pid"
  for _ in $(seq 1 300); do
    kill -0 "$pid" 2>/dev/null || break
    sleep 0.1
  done
  if kill -0 "$pid" 2>/dev/null; then
    echo "error: poolnetd --system $system still running 30 s after" \
      "SIGTERM:" >&2
    cat "$log" >&2
    exit 1
  fi
  local status=0
  wait "$pid" || status=$?
  DAEMON_PID=""
  if [[ -n "$STUCK_PID" ]]; then
    kill "$STUCK_PID" 2>/dev/null || true
    wait "$STUCK_PID" 2>/dev/null || true
    STUCK_PID=""
  fi
  if [[ "$status" -ne 0 ]]; then
    echo "error: poolnetd --system $system exited $status after SIGTERM:" >&2
    cat "$log" >&2
    exit 1
  fi
  if ! grep -q "^poolnetd: served $connections connections, $queries queries" \
    "$log"; then
    echo "error: poolnetd --system $system did not report serving the" \
      "full load:" >&2
    cat "$log" >&2
    exit 1
  fi
  grep "^poolnetd: served" "$log" | sed "s/^/$system: /"
}

# Pool writes the reports bench_smoke.sh and CI read; GHT and central
# (each a Testbed with only its own stack behind the daemon) are checked
# the same way, their reports discarded.
smoke pool BENCH_server_smoke.json BENCH_server_smoke_classes.json
smoke ght "$SCRATCH/ght.json" "$SCRATCH/ght_classes.json"
smoke central "$SCRATCH/central.json" "$SCRATCH/central_classes.json" stuck

echo "server smoke OK"
