#!/usr/bin/env bash
# Builds bayonet-served and the benchmark from source, then runs the
# benchmark against that server. Run from the repository root:
#
#   bash perfbench/run.sh --workload run_miss --seed 1 --seconds 20 --trace 0
#
# Build outputs go to $CARGO_TARGET_DIR (default: .bench_build).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/.bench_build}"
cargo build --release --quiet --offline \
    --manifest-path "$root/crates/serve/Cargo.toml" --bin bayonet-served
cargo build --release --quiet --offline --manifest-path "$here/Cargo.toml"
exec "$CARGO_TARGET_DIR/release/perfbench" \
    --server "$CARGO_TARGET_DIR/release/bayonet-served" "$@"
