//! # cce-analyze — repo-specific static analysis
//!
//! Mechanizes the invariants the workspace otherwise keeps by
//! convention (see DESIGN.md §9). Two layers:
//!
//! **Flat token lints** ([`lints`]), scoped per file:
//!
//! * **cost-constant** — the Eq. 2–4 overhead constants are defined
//!   once, in `cce_sim::overhead`; re-typed literals anywhere else are
//!   drift waiting to happen.
//! * **panic-path** — `unwrap`/`expect`/`panic!` in non-test library
//!   code of `cce-core`/`cce-sim`/`cce-dbt`, ratcheted by
//!   `analyze-baseline.json` so the count only goes down.
//!
//! **Interprocedural lints**, built on a workspace symbol table
//! ([`symbols`]), a conservative call graph ([`callgraph`]), and — for
//! the path-sensitive passes — per-function control-flow graphs
//! ([`cfg`](mod@cfg)) solved by a generic worklist dataflow engine
//! ([`dataflow`]):
//!
//! * **nondet-taint** ([`taint`]) — nondeterminism sources (hash-order
//!   iteration, wall-clock reads, `available_parallelism`, thread ids,
//!   unordered channel receives) that reach an event-emitting or
//!   `SimResult`-producing function through the call graph, with the
//!   call path reported hop by hop. Successor to the file-local
//!   `nondet-iter`.
//! * **event-typestate** ([`typestate`]) — path-sensitive verification
//!   of the eviction event grammar: every path from `EvictionBegin`
//!   reaches exactly one `EvictionEnd` before function exit, no nested
//!   scopes, `Evicted`/`Unlinked` only inside an open scope —
//!   interprocedural through opens/closes/balanced function summaries.
//!   Successor to the construction-site-only `event-protocol` check
//!   (whose machinery-confinement rule it keeps as a backstop).
//!
//! Old lint names still work in `cce-analyze: allow(…)` annotations
//! and committed baselines ([`lints::LINT_RENAMES`]).
//!
//! Built on a hand-rolled lexer ([`lexer`]) because the offline CI
//! cannot fetch `syn`; [`baseline`] implements the two-way ratchet and
//! [`sarif`] renders findings as SARIF 2.1.0.

#![deny(unsafe_code)]

pub mod baseline;
pub mod callgraph;
pub mod cfg;
pub mod dataflow;
pub mod lexer;
pub mod lints;
pub mod sarif;
pub mod symbols;
pub mod taint;
pub mod typestate;

pub use baseline::Baseline;
pub use lints::{Finding, LintSet};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use callgraph::CallGraph;
use symbols::Workspace;

/// Library crates where panics are findings (ratcheted).
const PANIC_CRATES: &[&str] = &["core", "sim", "dbt"];

/// The one file allowed to spell out the Eq. 2–4 constants.
const COST_DEFINITION_SITE: &str = "crates/sim/src/overhead.rs";

/// Files allowed to construct the eviction-grammar events directly;
/// also exempt from the grammar findings (their raw stream rewriting is
/// deliberately outside the function-scoped grammar). The sim ladder is
/// machinery too: it replays the grammar for up to 64 configurations
/// from one traversal, pinned byte-identical to the core's emission by
/// the ladder conformance suite.
pub const EVENT_ALLOWED: &[&str] = &[
    "crates/core/src/events.rs",
    "crates/core/src/cache.rs",
    "crates/core/src/shard.rs",
    "crates/core/src/testutil.rs",
    "crates/sim/src/ladder.rs",
];

/// The analyzer's own sources are exempt: its lint tables spell out the
/// constants and method names it searches for.
const SELF_CRATE: &str = "analyze";

/// The flat lints that apply to one repo file, from the scoping rules
/// above. `rel` is the repo-relative path with forward slashes.
/// (The interprocedural lints scope themselves: see
/// `SCOPE_CRATES` in [`taint`].)
#[must_use]
pub fn lint_set_for(rel: &str) -> LintSet {
    let krate = rel
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("");
    LintSet {
        cost_constant: rel != COST_DEFINITION_SITE,
        panic_path: PANIC_CRATES.contains(&krate),
    }
}

/// Lints `crates/*/src/**/*.rs` under `root`: every file gets its flat
/// lint set, then the workspace-wide symbol table and call graph feed
/// the interprocedural passes. Findings come back in path order.
///
/// # Errors
///
/// Propagates filesystem errors from the walk or from reading a source
/// file.
pub fn scan_repo(root: &Path) -> io::Result<Vec<Finding>> {
    let mut ws = Workspace::default();
    let mut findings = Vec::new();
    for src_dir in crate_src_dirs(root)? {
        for path in rust_files(&src_dir)? {
            let rel = relative_slash(root, &path);
            let src = fs::read_to_string(&path)?;
            let id = ws.add_file(&rel, &src);
            let set = lint_set_for(&rel);
            findings.extend(lints::run_flat(&rel, &ws.files[id].lexed, &set));
        }
    }
    let cg = CallGraph::build(&ws);
    findings.extend(taint::run(&ws, &cg, true));
    findings.extend(typestate::run(&ws, &cg, true));
    findings.sort_by(|a, b| (&a.file, a.line, a.lint).cmp(&(&b.file, b.line, b.lint)));
    Ok(findings)
}

/// Lints explicitly named files as one miniature workspace with every
/// lint enabled and no path-based exemptions — fixture mode. Call
/// edges resolve across all the given files.
///
/// # Errors
///
/// Propagates the read error if a file cannot be loaded.
pub fn scan_fixtures(paths: &[PathBuf]) -> io::Result<Vec<Finding>> {
    let mut ws = Workspace::default();
    let mut findings = Vec::new();
    for path in paths {
        let src = fs::read_to_string(path)?;
        let name = path.to_string_lossy().replace('\\', "/");
        let id = ws.add_file(&name, &src);
        findings.extend(lints::run_flat(&name, &ws.files[id].lexed, &LintSet::all()));
    }
    let cg = CallGraph::build(&ws);
    findings.extend(taint::run(&ws, &cg, false));
    findings.extend(typestate::run(&ws, &cg, false));
    findings.sort_by(|a, b| (&a.file, a.line, a.lint).cmp(&(&b.file, b.line, b.lint)));
    Ok(findings)
}

/// `crates/<name>/src` directories under `root`, sorted, minus the
/// analyzer itself.
fn crate_src_dirs(root: &Path) -> io::Result<Vec<PathBuf>> {
    let crates = root.join("crates");
    let mut dirs = Vec::new();
    for entry in fs::read_dir(&crates)? {
        let entry = entry?;
        if !entry.file_type()?.is_dir() || entry.file_name() == SELF_CRATE {
            continue;
        }
        let src = entry.path().join("src");
        if src.is_dir() {
            dirs.push(src);
        }
    }
    dirs.sort();
    Ok(dirs)
}

/// All `.rs` files under `dir`, recursively, sorted.
fn rust_files(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in fs::read_dir(&d)? {
            let entry = entry?;
            let path = entry.path();
            if entry.file_type()?.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

fn relative_slash(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoping_follows_the_lint_catalog() {
        let sim = lint_set_for("crates/sim/src/simulator.rs");
        assert!(sim.cost_constant && sim.panic_path);

        let overhead = lint_set_for(COST_DEFINITION_SITE);
        assert!(!overhead.cost_constant, "the definition site is exempt");
        assert!(overhead.panic_path);

        let workloads = lint_set_for("crates/workloads/src/access.rs");
        assert!(!workloads.panic_path);
        assert!(workloads.cost_constant);

        let dbt = lint_set_for("crates/dbt/src/lib.rs");
        assert!(dbt.panic_path);
    }

    #[test]
    fn event_machinery_files_are_typestate_exempt() {
        for rel in [
            "crates/core/src/events.rs",
            "crates/core/src/shard.rs",
            "crates/sim/src/ladder.rs",
        ] {
            assert!(EVENT_ALLOWED.contains(&rel), "{rel} must stay exempt");
        }
        assert!(!EVENT_ALLOWED.contains(&"crates/core/src/org/mod.rs"));
        assert!(!EVENT_ALLOWED.contains(&"crates/sim/src/simulator.rs"));
    }
}
