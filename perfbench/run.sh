#!/usr/bin/env bash
# Build qurk-serve and the benchmark from source, then run the benchmark.
#
#   bash perfbench/run.sh --workload join-crowd --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh test     # the benchmark's own tests
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); build logs go to stderr, so the last line of
# stdout is the benchmark's JSON result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p qurk-serve >&2
if [ "${1:-}" = test ]; then
    # Tests run from the package directory, so the path must be absolute.
    case "$CARGO_TARGET_DIR" in
        /*) export QURK_SERVE_BIN="$CARGO_TARGET_DIR/release/qurk-serve" ;;
        *) export QURK_SERVE_BIN="$PWD/$CARGO_TARGET_DIR/release/qurk-serve" ;;
    esac
    exec cargo test --release --offline --manifest-path perfbench/Cargo.toml
fi
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/qurk-perfbench" \
    --serve-bin "$CARGO_TARGET_DIR/release/qurk-serve" \
    --work-dir .perfbench-tmp "$@"
