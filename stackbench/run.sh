#!/usr/bin/env bash
# Builds the `biq` CLI and the stack benchmark from source, then runs one
# workload. Run from the repository root:
#   bash stackbench/run.sh <fixed flags from BENCHMARK.json> \
#       --workload <name> --seed <n> --seconds <s> --trace <0|1>
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p biq_cli --bin biq >&2
cargo build --release --offline --quiet --manifest-path stackbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/stackbench" --biq "$CARGO_TARGET_DIR/release/biq" "$@"
