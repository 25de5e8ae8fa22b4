#!/usr/bin/env bash
# Builds the deployed server and the benchmark, then runs the benchmark.
#
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the repository root. The two builds stay separate on purpose: a
# joint build would unify features and link `cfl-match/validate` into the
# library half as well. All build output goes to stderr, so the last line of
# stdout is the benchmark's JSON result.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -f crates/cli/Cargo.toml || ! -f benchmark/Cargo.toml ]]; then
    echo "benchmark/run.sh: run from the repository root (Cargo.toml, crates/ and benchmark/ needed)" >&2
    exit 2
fi

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --offline --release -p cfl-cli >&2
cargo build --offline --release --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/benchmark" --cfl "$CARGO_TARGET_DIR/release/cfl" "$@"
