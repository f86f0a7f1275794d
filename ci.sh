#!/usr/bin/env sh
# Offline CI gate: formatting, lints, rustdoc, every test in the workspace
# (`default-members` in the root manifest makes plain `cargo test -q`
# cover all crates, same as tier-1), the analyzer's repo gate, the
# benchmark's smoke pass and its unit tests.
#
# Clippy is the panic gate: the roots of cce-core, cce-sim and cce-dbt
# warn on `unwrap_used`, `expect_used` and `panic` outside tests, and
# each allowed site carries `#[expect(<lint>, reason = "…")]`. Under
# `-D warnings` it is also the stale-expectation gate: an `#[expect]`
# whose site was fixed no longer fires, and that fails the step.
set -eux

cargo fmt --all --check
cargo clippy --workspace --all-targets -- -D warnings
# Dangling or private intra-doc links (what a deletion leaves behind)
# fail here.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
cargo build --release
cargo test -q
# The workspace gate: hard-fails on any nondet-taint finding or if
# analysis blows its wall-time budget. (The violating/clean fixture
# pairs are checked with exact finding counts by
# crates/analyze/tests/golden.rs in the test pass above.) The SARIF log
# is emitted alongside for upload/inspection.
cargo run -p cce-analyze -- --budget-ms 5000
cargo run -q -p cce-analyze -- --format sarif > analyze.sarif || true
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
# The benchmark crate's own unit tests (statistics, workload spec, trace
# output); it is a workspace of its own, so `cargo test` above skips it.
cargo test -q --offline --manifest-path benchmark/Cargo.toml
