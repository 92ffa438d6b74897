#!/usr/bin/env bash
# Build the release server and the benchmark driver from this checkout,
# then run one workload:
#
#   bash perfbench/run.sh --workload read_small|live_medium \
#       --seed N --seconds S --trace 0|1
#
# Run from the repository root. Builds go to $CARGO_TARGET_DIR
# (default .bench_build). The traced replay is a separate package:
# with --trace 0 its build is attempted but may fail without affecting
# the end-to-end run; with --trace 1 it must build.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates/serve || ! -f perfbench/e2e/Cargo.toml ]]; then
    echo "perfbench: run from the repository root" >&2
    exit 2
fi

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
trace=0
prev=""
for arg in "$@"; do
    if [[ "$prev" == "--trace" ]]; then trace="$arg"; fi
    prev="$arg"
done

cargo build --release --offline --quiet -p mlpeer-serve --bin mlpeer-serve >&2
cargo build --release --offline --quiet --manifest-path perfbench/e2e/Cargo.toml >&2
if [[ "$trace" == "1" ]]; then
    cargo build --release --offline --quiet --manifest-path perfbench/traced/Cargo.toml >&2
elif ! cargo build --release --offline --quiet --manifest-path perfbench/traced/Cargo.toml >&2; then
    echo "perfbench: traced replay does not build; end-to-end run continues" >&2
fi

exec "$CARGO_TARGET_DIR/release/perfbench" "$@" \
    --server "$CARGO_TARGET_DIR/release/mlpeer-serve" \
    --traced "$CARGO_TARGET_DIR/release/perfbench-traced"
