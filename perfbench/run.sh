#!/usr/bin/env bash
# Builds the binaries under test and `perfbench` from source, then runs
# `perfbench` with the given arguments:
#   bash perfbench/run.sh --workload cli_single --seed 1 --seconds 30 --trace 0
# Run from the repository root. Build output goes to stderr, so the last
# line of stdout is the benchmark's JSON result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --manifest-path Cargo.toml -p implicate -p imp-serve >&2
cargo build --release --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --bin-dir "$CARGO_TARGET_DIR/release" "$@"
