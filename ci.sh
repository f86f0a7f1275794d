#!/usr/bin/env sh
# Offline CI gate: formatting, lints, every test in the workspace
# (`default-members` in the root manifest makes plain `cargo test -q`
# cover all crates, same as tier-1), the analyzer's repo gate and the
# benchmark's smoke pass.
set -eux

cargo fmt --all --check
cargo clippy --workspace --all-targets -- -D warnings
cargo build --release
cargo test -q
# The workspace gate: hard-fails on any finding above the committed
# baseline, on a stale baseline, or if analysis blows its wall-time
# budget. (Each lint's violating/clean fixture pair is checked with
# exact finding counts by crates/analyze/tests/golden.rs in the test
# pass above.) The SARIF log is emitted alongside for upload/inspection.
cargo run -p cce-analyze -- --baseline analyze-baseline.json --budget-ms 5000
cargo run -q -p cce-analyze -- --baseline analyze-baseline.json --format sarif > analyze.sarif || true
head -c 400 analyze.sarif; echo
# The benchmark crate builds against the workspace's public API and
# checks each of its eight workloads against a reference; an API break
# or a wrong output fails here. Every reference is computed over a
# different path except `grid_sharded`'s, which runs the same ladder
# path it checks: the ladder-vs-naive gate for sharded cells is
# `ladder_conformance`'s sharded matrices in the test pass above. The
# benchmark also carries the unsharded ladder-vs-naive gate
# (`grid_ladder`) and the serve zero-shed gate (`serve_paced`).
bash benchmark/run.sh --smoke
