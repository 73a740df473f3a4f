#!/usr/bin/env bash
# Tier-1 verification gate. Everything here runs fully offline: the
# workspace has zero external dependencies.
#
# Usage: scripts/verify.sh [--quick]
#   --quick   skip the release build (debug test run only)

set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
if [[ "${1:-}" == "--quick" ]]; then
  QUICK=1
fi

run() {
  echo "==> $*"
  "$@"
}

# Wait for the `fj serve` in SERVE_PID to exit after `shutdown`, for at
# most 10 s: a server that never returns fails the gate instead of
# hanging it.
wait_serve() {
  for _ in $(seq 100); do
    if ! kill -0 "$SERVE_PID" 2>/dev/null; then
      wait "$SERVE_PID"
      return
    fi
    sleep 0.1
  done
  echo "verify: fj serve did not exit within 10 s of shutdown ($1)" >&2
  exit 1
}

run cargo fmt --all --check

run cargo clippy --workspace --all-targets --offline -- -D warnings

# Every test once, including the saboteur suites (every saboteur mode is
# caught, rolled back, and value-preserving), the server chaos suite, and
# the VM differential suites, which hold both the fused and the unfused
# instruction stream to the machine.
run cargo test --workspace --offline -q

# The benchmark is its own workspace, so the builds above never compile
# it; it depends on public items of the crates here. `check`, not
# `benchmark/run.sh`: every run appends to benchmark/out/results.jsonl,
# and a smoke record there would spoil a later `compare`.
run cargo check --offline --manifest-path benchmark/Cargo.toml --all-targets

# Fuzz-farm smoke: a fixed-seed, time-budgeted pass over the full route
# matrix (strict/resilient/cached/machine/VM) must agree on every case.
# The binary exists because the test run above built it.
run ./target/debug/fj fuzz --seed 1 --count 300 --time-budget-ms 10000

# Fuzz self-test: a sabotaged strict pipeline must make the farm FAIL
# and leave a shrunk on-disk repro naming the failing route pair.
FUZZ_SAB_DIR="$(mktemp -d)"
echo '==> ./target/debug/fj fuzz --seed 1 --count 64 --sabotage swap-case-alts:0   (must fail)'
if ./target/debug/fj fuzz --seed 1 --count 64 --sabotage swap-case-alts:0 \
     --corpus "$FUZZ_SAB_DIR" >/dev/null 2>&1; then
  echo "verify: sabotaged fuzz run unexpectedly passed" >&2
  exit 1
fi
ls "$FUZZ_SAB_DIR"/*.fj >/dev/null 2>&1 || {
  echo "verify: sabotaged fuzz run wrote no repro" >&2
  exit 1
}
grep -q '^-- routes: ' "$FUZZ_SAB_DIR"/*.fj || {
  echo "verify: fuzz repro names no route pair" >&2
  exit 1
}
rm -rf "$FUZZ_SAB_DIR"

if [[ "$QUICK" -eq 0 ]]; then
  # A debug-assertions pass over the VM in release mode: the optimized
  # build keeps its internal invariant checks honest.
  echo '==> RUSTFLAGS="-C debug-assertions=on" cargo test -p fj-vm --release --offline -q'
  env RUSTFLAGS="-C debug-assertions=on" cargo test -p fj-vm --release --offline -q
  run cargo build --workspace --release --offline
  # The README's worked examples drive the optimizer and erasure through
  # the library API; each must run to completion (any non-zero exit
  # fails the gate).
  for ex in examples/*.rs; do
    name="$(basename "$ex" .rs)"
    echo "==> cargo run -q --release --offline --example $name"
    cargo run -q --release --offline --example "$name" >/dev/null
  done
  # The headline acceptance check: the report must render, and the
  # join-points pipeline must win on the contification-sensitive rows
  # (asserted in detail by the fj-nofib test suite; this is the smoke
  # pass over the real binary). Building it also checks every program's
  # VM value and counters against the machine, and its native candle.
  run ./target/release/fj report >/dev/null
  # Serve smoke: start the compile service on an ephemeral port, compile
  # the same program three times over raw TCP, and require the second and
  # third responses to be flagged as cache hits, served from source-text
  # entries, before a clean shutdown.
  SERVE_LOG="$(mktemp)"
  echo '==> ./target/release/fj serve --port 0   (smoke)'
  ./target/release/fj serve --port 0 > "$SERVE_LOG" 2>&1 &
  SERVE_PID=$!
  trap 'kill $SERVE_PID 2>/dev/null || true' EXIT
  for _ in $(seq 50); do
    grep -q 'listening on' "$SERVE_LOG" 2>/dev/null && break
    sleep 0.1
  done
  SERVE_ADDR="$(sed -n 's/^fj serve: listening on //p' "$SERVE_LOG" | head -1)"
  [[ -n "$SERVE_ADDR" ]] || { echo "verify: fj serve never bound" >&2; exit 1; }
  SERVE_HOST="${SERVE_ADDR%:*}"
  SERVE_PORT="${SERVE_ADDR##*:}"
  REQ='{"op": "compile", "program": "def main : Int = 21 * 2;"}'
  exec 3<>"/dev/tcp/$SERVE_HOST/$SERVE_PORT"
  printf '%s\n' "$REQ" >&3; read -r FIRST <&3
  printf '%s\n' "$REQ" >&3; read -r SECOND <&3
  # Hostile-input smoke on the same connection: a garbage frame must map
  # to an in-protocol `proto` error, and the connection must keep serving.
  printf '%s\n' '}}not json at all{{' >&3; read -r GARBAGE <&3
  printf '%s\n' "$REQ" >&3; read -r AFTER <&3
  printf '%s\n' '{"op": "stats"}' >&3; read -r STATS <&3
  printf '%s\n' '{"op": "shutdown"}' >&3; read -r BYE <&3
  exec 3>&-
  echo "$FIRST"  | grep -q '"cache": "miss"' || { echo "verify: first serve compile was not a miss: $FIRST" >&2; exit 1; }
  echo "$SECOND" | grep -q '"cache": "hit"'  || { echo "verify: second serve compile was not a hit: $SECOND" >&2; exit 1; }
  echo "$GARBAGE" | grep -q '"tag": "proto"' || { echo "verify: garbage frame was not a proto error: $GARBAGE" >&2; exit 1; }
  echo "$AFTER"  | grep -q '"cache": "hit"'  || { echo "verify: connection dead after garbage frame: $AFTER" >&2; exit 1; }
  echo "$STATS"  | grep -q '"service"'       || { echo "verify: stats lacks the service block: $STATS" >&2; exit 1; }
  # The two recompiles are byte-identical, so source-text entries serve both.
  echo "$STATS"  | grep -q '"source_hits": 2' || { echo "verify: byte-identical recompiles were not source hits: $STATS" >&2; exit 1; }
  echo "$BYE"    | grep -q '"shutting_down": true' || { echo "verify: serve shutdown failed: $BYE" >&2; exit 1; }
  wait_serve "serve smoke"
  trap - EXIT
  rm -f "$SERVE_LOG"

  # Warm-restart smoke: with --cache-dir, a compile served by one server
  # process must come back as a disk-backed cache hit after a full
  # restart over the same directory — the persistent tier survives the
  # process, and the stats block must admit where the hit came from.
  RESTART_DIR="$(mktemp -d)"
  RESTART_REQ='{"op": "compile", "program": "def main : Int = 21 * 2;"}'
  for ROUND in cold warm; do
    SERVE_LOG="$(mktemp)"
    echo "==> ./target/release/fj serve --port 0 --cache-dir $RESTART_DIR   ($ROUND restart smoke)"
    ./target/release/fj serve --port 0 --cache-dir "$RESTART_DIR" > "$SERVE_LOG" 2>&1 &
    SERVE_PID=$!
    trap 'kill $SERVE_PID 2>/dev/null || true' EXIT
    for _ in $(seq 50); do
      grep -q 'listening on' "$SERVE_LOG" 2>/dev/null && break
      sleep 0.1
    done
    SERVE_ADDR="$(sed -n 's/^fj serve: listening on //p' "$SERVE_LOG" | head -1)"
    [[ -n "$SERVE_ADDR" ]] || { echo "verify: fj serve --cache-dir never bound ($ROUND)" >&2; exit 1; }
    exec 3<>"/dev/tcp/${SERVE_ADDR%:*}/${SERVE_ADDR##*:}"
    printf '%s\n' "$RESTART_REQ" >&3; read -r REPLY <&3
    printf '%s\n' '{"op": "stats"}' >&3; read -r STATS <&3
    printf '%s\n' '{"op": "shutdown"}' >&3; read -r BYE <&3
    exec 3>&-
    if [[ "$ROUND" == cold ]]; then
      echo "$REPLY" | grep -q '"cache": "miss"' || { echo "verify: cold restart-smoke compile was not a miss: $REPLY" >&2; exit 1; }
    else
      echo "$REPLY" | grep -q '"cache": "hit"' || { echo "verify: restarted server did not hit the disk tier: $REPLY" >&2; exit 1; }
      echo "$STATS" | grep -q '"enabled": true, "hits": 1' || { echo "verify: restart stats shows no disk hit: $STATS" >&2; exit 1; }
    fi
    echo "$STATS" | grep -q '"disk"' || { echo "verify: stats lacks the disk block: $STATS" >&2; exit 1; }
    echo "$BYE" | grep -q '"shutting_down": true' || { echo "verify: restart-smoke shutdown failed ($ROUND): $BYE" >&2; exit 1; }
    wait_serve "$ROUND restart smoke"
    trap - EXIT
    rm -f "$SERVE_LOG"
  done
  ls "$RESTART_DIR"/*.fjc >/dev/null 2>&1 || {
    echo "verify: --cache-dir wrote no persistent entries" >&2
    exit 1
  }
  rm -rf "$RESTART_DIR"
fi

echo "verify: all checks passed"
