//! Golden-fixture tests: the binary must exit nonzero on each
//! violating fixture, zero on each clean one, traces must survive all
//! three output formats, and the repo itself must report nothing.

use std::path::PathBuf;
use std::process::{Command, Output};

use cce_util::Json;

fn fixture(name: &str) -> String {
    format!("{}/fixtures/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(std::path::Path::parent)
        .expect("crates/analyze has a grandparent")
        .to_path_buf()
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cce-analyze"))
        .args(args)
        .output()
        .expect("spawn cce-analyze")
}

/// Runs the binary on one fixture; returns (exit-zero?, stdout).
fn run_fixture(name: &str) -> (bool, String) {
    let out = run(&[&fixture(name)]);
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
    )
}

fn assert_pair(lint: &str, violating: &str, clean: &str, expected_findings: usize) {
    let (ok, stdout) = run_fixture(violating);
    assert!(!ok, "{violating} must fail:\n{stdout}");
    let flagged = stdout
        .lines()
        .filter(|l| l.contains(&format!("[{lint}]")))
        .count();
    assert_eq!(
        flagged, expected_findings,
        "{violating} findings:\n{stdout}"
    );

    let (ok, stdout) = run_fixture(clean);
    assert!(ok, "{clean} must pass:\n{stdout}");
    assert!(
        stdout.starts_with("cce-analyze: 0 finding(s)"),
        "{clean} output:\n{stdout}"
    );
}

#[test]
fn nondet_taint_pair() {
    assert_pair(
        "nondet-taint",
        "nondet_taint_violating.rs",
        "nondet_taint_clean.rs",
        3,
    );
}

#[test]
fn nondet_taint_idmap_alias_pair() {
    assert_pair(
        "nondet-taint",
        "nondet_idmap_violating.rs",
        "nondet_idmap_clean.rs",
        2,
    );
}

#[test]
fn lexer_desync_fixture_stays_clean() {
    // Nested block comments and the full escape set: if the lexer
    // loses a literal boundary, the fixture's trap strings leak
    // nondet-taint bait into a sink and this clean check fails.
    let (ok, stdout) = run_fixture("lexer_desync_clean.rs");
    assert!(ok, "lexer desync leaked tokens:\n{stdout}");
    assert!(stdout.starts_with("cce-analyze: 0 finding(s)"), "{stdout}");
}

#[test]
fn diagnostics_are_file_line_clickable() {
    let (_, stdout) = run_fixture("nondet_taint_violating.rs");
    let first = stdout.lines().next().expect("at least one line");
    assert!(
        first.contains("nondet_taint_violating.rs:23: [nondet-taint]"),
        "{first}"
    );
}

#[test]
fn interprocedural_traces_survive_all_three_formats() {
    // Text: indented continuation hops under the finding line, with
    // the sink, the call hop, and the source each present.
    let (_, stdout) = run_fixture("nondet_taint_violating.rs");
    let hops: Vec<&str> = stdout.lines().filter(|l| l.starts_with("    ")).collect();
    assert!(
        hops.iter()
            .any(|l| l.contains("sink `") && l.contains("summarize")),
        "{stdout}"
    );
    assert!(hops.iter().any(|l| l.contains("call inside `")), "{stdout}");
    assert!(
        hops.iter()
            .any(|l| l.contains("source in `") && l.contains("dump")),
        "{stdout}"
    );

    // JSON: a trace array with file/line/label per hop.
    let out = run(&["--format", "json", &fixture("nondet_taint_violating.rs")]);
    let doc =
        Json::parse(std::str::from_utf8(&out.stdout).expect("utf-8")).expect("json output parses");
    let findings = doc
        .get("findings")
        .and_then(Json::as_arr)
        .expect("findings");
    assert_eq!(findings.len(), 3);
    let trace = findings[0]
        .get("trace")
        .and_then(Json::as_arr)
        .expect("first finding has a trace");
    assert_eq!(trace.len(), 3, "sink, call hop, source");
    for hop in trace {
        assert!(hop.get("file").and_then(Json::as_str).is_some());
        assert!(hop.get("line").and_then(Json::as_u64).is_some());
        assert!(hop.get("label").and_then(Json::as_str).is_some());
    }

    // SARIF: versioned log with codeFlows carrying the same hops.
    let out = run(&["--format", "sarif", &fixture("nondet_taint_violating.rs")]);
    assert!(!out.status.success(), "findings still fail in sarif mode");
    let doc =
        Json::parse(std::str::from_utf8(&out.stdout).expect("utf-8")).expect("sarif output parses");
    assert_eq!(doc.get("version").and_then(Json::as_str), Some("2.1.0"));
    let runs = doc.get("runs").and_then(Json::as_arr).expect("runs");
    let results = runs[0]
        .get("results")
        .and_then(Json::as_arr)
        .expect("results");
    assert_eq!(results.len(), 3);
    let flows = results[0]
        .get("codeFlows")
        .and_then(Json::as_arr)
        .expect("traced finding has codeFlows");
    let steps = flows[0]
        .get("threadFlows")
        .and_then(Json::as_arr)
        .and_then(|tf| tf[0].get("locations"))
        .and_then(Json::as_arr)
        .expect("threadFlow locations");
    assert_eq!(steps.len(), 3);
}

#[test]
fn json_output_is_parseable_and_complete() {
    let out = run(&["--format", "json", &fixture("nondet_taint_violating.rs")]);
    assert!(!out.status.success());
    let doc =
        Json::parse(std::str::from_utf8(&out.stdout).expect("utf-8")).expect("json output parses");
    let findings = doc
        .get("findings")
        .and_then(Json::as_arr)
        .expect("findings");
    assert_eq!(doc.get("total").and_then(Json::as_u64), Some(3));
    assert_eq!(findings.len(), 3);
    let first = &findings[0];
    assert_eq!(
        first.get("lint").and_then(Json::as_str),
        Some("nondet-taint")
    );
    assert!(first.get("line").and_then(Json::as_u64).is_some());
    assert!(first
        .get("file")
        .and_then(Json::as_str)
        .expect("file")
        .ends_with("nondet_taint_violating.rs"));
}

#[test]
fn wall_time_budget_gates_the_run() {
    // An absurdly generous budget passes…
    let out = run(&[&fixture("nondet_taint_clean.rs"), "--budget-ms", "600000"]);
    assert!(out.status.success());
    // …an impossible one fails even with zero findings.
    // (The whole-repo scan always takes longer than 0 ms; a single
    // tiny fixture can round down to it.)
    let root = repo_root();
    let out = run(&["--root", &root.to_string_lossy(), "--budget-ms", "0"]);
    assert!(!out.status.success(), "0ms budget must fail");
    let stderr = String::from_utf8(out.stderr).expect("utf-8");
    assert!(stderr.contains("exceeded --budget-ms"), "{stderr}");
}

#[test]
fn usage_errors_exit_two() {
    let out = run(&["--format", "yaml"]);
    assert_eq!(out.status.code(), Some(2));
    let out = run(&["--root"]);
    assert_eq!(out.status.code(), Some(2));
    let out = run(&["--no-such-flag"]);
    assert_eq!(out.status.code(), Some(2));
    let out = run(&["--budget-ms", "lots"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn repo_reports_nothing_above_committed_baseline() {
    // There is no baseline any more: the committed budget is zero.
    let out = run(&["--root", &repo_root().to_string_lossy()]);
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(out.status.success(), "repo has findings:\n{stdout}");
    assert!(stdout.starts_with("cce-analyze: 0 finding(s)"), "{stdout}");
}
