#!/usr/bin/env sh
# Offline CI gate: formatting, lints, rustdoc, every test in the workspace
# (`default-members` in the root manifest makes plain `cargo test -q`
# cover all crates, same as tier-1), the benchmark's smoke pass and its
# unit tests.
#
# Clippy is the panic gate: the roots of cce-core, cce-sim and cce-dbt
# warn on `unwrap_used`, `expect_used` and `panic` outside tests, and
# each allowed site carries `#[expect(<lint>, reason = "…")]`.
#
# Clippy is also the determinism gate (DESIGN.md §9): `clippy.toml`
# disallows every clock, machine, scheduler and hash-order read, and
# `iter_over_hash_type` catches `for … in &map`. Under `-D warnings` it
# is the stale-expectation gate too: an `#[expect]` whose site was
# fixed no longer fires, and that fails the step.
set -eux

cargo fmt --all --check
# A `clippy.toml` path that names no reachable function (say, after a
# rename) only warns, and `-D warnings` does not promote that warning:
# the rule would switch itself off. Fail on it here.
clippy_out=$(cargo clippy --workspace --all-targets -- -D warnings 2>&1) || {
    printf '%s\n' "$clippy_out"
    exit 1
}
printf '%s\n' "$clippy_out"
case "$clippy_out" in
*"does not refer to a reachable function"*)
    echo "clippy.toml names a path that does not resolve" >&2
    exit 1
    ;;
esac
# Dangling or private intra-doc links (what a deletion leaves behind)
# fail here.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
cargo build --release
cargo test -q
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
