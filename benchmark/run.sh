#!/usr/bin/env bash
# Build `fj` and the benchmark offline, then run it.
#
#   benchmark/run.sh --workload NAME [--seed N] [--seconds 20] [--trace 0|1] [--smoke]
#       one workload in this process; the last stdout line is its result
#   benchmark/run.sh [--seed N] [--trace 0|1] [--smoke]
#       every workload, each in its own process
#   benchmark/run.sh compare PARENT.jsonl CHANGE.jsonl [--claim METRIC@WORKLOAD]
#
# A run measures for run_seconds (20) from BENCHMARK.json, or 1 s with
# --smoke; --seconds is accepted only with that fixed value.
#
# Both builds share one target directory: $CARGO_TARGET_DIR when set,
# else target/ at the repository root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in /*) ;; *) target="$root/$target" ;; esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --bin fj
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bench="$target/release/fj-benchmark"
mkdir -p benchmark/out

if [ "${1:-}" = compare ]; then
    exec "$bench" "$@"
fi

for arg in "$@"; do
    if [ "$arg" = --workload ]; then
        exec "$bench" --fj "$target/release/fj" --out benchmark/out "$@"
    fi
done

status=0
for w in compile-cold run-vm serve-mixed restart-warm; do
    "$bench" --fj "$target/release/fj" --out benchmark/out --workload "$w" "$@" || status=1
done
exit "$status"
