#!/usr/bin/env bash
# Server smoke check: for each of --system pool, ght and central, boot
# poolnetd on an ephemeral port, drive it with server_load over real
# sockets (2 connections x 100 range queries, then 2 x 50 mixed-class
# ones), verify every streamed result is byte-identical to direct
# execution on server_load's own Backend, then SIGTERM the daemon and
# require a clean drain (exit 0). Exits nonzero on any violation.
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
# A failing check exits early (set -e): never leave a daemon behind.
cleanup() {
  if [[ -n "$DAEMON_PID" ]]; then kill "$DAEMON_PID" 2>/dev/null || true; fi
  rm -rf "$SCRATCH"
}
trap cleanup EXIT

# smoke <system> <range-json> <mix-json>: one daemon, two load runs, one
# drain check.
smoke() {
  local system="$1" range_json="$2" mix_json="$3"
  local log="$SCRATCH/poolnetd_$system.log"

  # The backend flags here MUST match server_load's below — identical
  # construction is what makes the cross-process byte comparison valid.
  "$DAEMON" --system "$system" --nodes 300 --dims 3 --events-per-node 3 \
    --seed 1 --batch 16 --port 0 > "$log" 2>&1 &
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

  "$LOAD" --connect "127.0.0.1:$port" --connections 2 --queries 100 \
    --system "$system" --nodes 300 --dims 3 --events-per-node 3 --seed 1 \
    --batch 16 --json "$range_json"

  # The query classes over the same live daemon: mixed SELECT SKYLINE /
  # SELECT NEAREST / range statements, every reply byte-checked against
  # direct execution on an identically-built backend.
  "$LOAD" --connect "127.0.0.1:$port" --connections 2 --queries 50 \
    --system "$system" --nodes 300 --dims 3 --events-per-node 3 --seed 1 \
    --batch 16 --query-class mix --json "$mix_json"

  # Clean drain: SIGTERM must answer everything in flight and exit 0.
  kill -TERM "$pid"
  local status=0
  wait "$pid" || status=$?
  DAEMON_PID=""
  if [[ "$status" -ne 0 ]]; then
    echo "error: poolnetd --system $system exited $status after SIGTERM:" >&2
    cat "$log" >&2
    exit 1
  fi
  if ! grep -q "^poolnetd: served 4 connections, 300 queries" "$log"; then
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
smoke central "$SCRATCH/central.json" "$SCRATCH/central_classes.json"

echo "server smoke OK"
