#!/usr/bin/env bash
# Builds the shipped `hdoutlier` binary and the benchmark from source, then
# runs the benchmark with the given arguments. Run from the repository root:
#
#     bash benchmark/run.sh --workload stream-csv --seed 3 --seconds 10 --trace 0
#     bash benchmark/run.sh --seed 1 --out results.json      # all workloads
#
# Both builds share $CARGO_TARGET_DIR (default: target).
set -euo pipefail
target="${CARGO_TARGET_DIR:-target}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet -p hdoutlier-cli --bin hdoutlier
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "$target/release/benchmark" --hdoutlier "$target/release/hdoutlier" "$@"
