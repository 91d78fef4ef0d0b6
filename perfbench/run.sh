#!/usr/bin/env bash
# Build the `muri` binary and the benchmark from source, then run one
# benchmark run. Run from the repository root:
#
#   bash perfbench/run.sh --workload sim-online --seed 1 --seconds 40 --trace 0
#
# Builds go to $CARGO_TARGET_DIR (default .bench_build); daemon state goes
# to .perfbench-state/ and is removed when the run ends.
set -euo pipefail

cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p muri-cli
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/muri-perfbench" --muri "$CARGO_TARGET_DIR/release/muri" "$@"
