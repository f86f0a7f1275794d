//! # cce-analyze — repo-specific static analysis
//!
//! One interprocedural lint the compiler cannot express, **nondet-taint**
//! ([`taint`]): nondeterminism sources (hash-order iteration,
//! wall-clock reads, `available_parallelism`, thread ids, unordered
//! channel receives) that reach an event-emitting or
//! `SimResult`-producing function through the call graph, with the call
//! path reported hop by hop (DESIGN.md §9). It runs on a workspace
//! symbol table ([`symbols`]) and a conservative call graph
//! ([`callgraph`]), built on a hand-rolled lexer ([`lexer`]) because the
//! offline CI cannot fetch `syn`; [`sarif`] renders findings as SARIF
//! 2.1.0.
//!
//! The rules it used to check by pattern are now the compiler's: the
//! eviction-event grammar is sealed in `cce_core::events`, and panics in
//! library code are clippy's `unwrap_used`/`expect_used`/`panic` with a
//! `#[expect]` per allowed site.

#![deny(unsafe_code)]

pub mod callgraph;
pub mod lexer;
pub mod lints;
pub mod sarif;
pub mod symbols;
pub mod taint;

pub use lints::Finding;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use callgraph::CallGraph;
use symbols::Workspace;

/// The analyzer's own sources are exempt: its tables spell out the
/// method names it searches for.
const SELF_CRATE: &str = "analyze";

/// Lints `crates/*/src/**/*.rs` under `root` as one workspace: the
/// symbol table and call graph feed the taint pass, which keeps to the
/// crates it scopes itself to. Findings come back in path order.
///
/// # Errors
///
/// Propagates filesystem errors from the walk or from reading a source
/// file.
pub fn scan_repo(root: &Path) -> io::Result<Vec<Finding>> {
    let mut ws = Workspace::default();
    for src_dir in crate_src_dirs(root)? {
        for path in rust_files(&src_dir)? {
            let src = fs::read_to_string(&path)?;
            ws.add_file(&relative_slash(root, &path), &src);
        }
    }
    Ok(analyze(&ws, true))
}

/// Lints explicitly named files as one miniature workspace with no
/// crate scoping — fixture mode. Call edges resolve across all the
/// given files.
///
/// # Errors
///
/// Propagates the read error if a file cannot be loaded.
pub fn scan_fixtures(paths: &[PathBuf]) -> io::Result<Vec<Finding>> {
    let mut ws = Workspace::default();
    for path in paths {
        let src = fs::read_to_string(path)?;
        ws.add_file(&path.to_string_lossy().replace('\\', "/"), &src);
    }
    Ok(analyze(&ws, false))
}

/// Runs the taint pass over `ws`; findings sorted by file and line.
fn analyze(ws: &Workspace, repo_scope: bool) -> Vec<Finding> {
    let mut findings = taint::run(ws, &CallGraph::build(ws), repo_scope);
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    findings
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
