#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it.
#
#   benchmark/run.sh                       every workload, end-to-end metrics
#   benchmark/run.sh --trace               every workload, per-layer metrics + out/trace.json
#   benchmark/run.sh --workload replay_hit --seed 11 --seconds 8 --trace 0
#   benchmark/run.sh --smoke               scale 0.05, one pass each, all checks on
#   benchmark/run.sh --repeat-check        two full sets; fails if a metric moves past its bound
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

export BENCH_DIR="$here"
export BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
export BENCH_COMMIT="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
exec "$CARGO_TARGET_DIR/release/cce-benchmark" "$@"
