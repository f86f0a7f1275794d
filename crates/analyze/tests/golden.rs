//! Golden-fixture tests: the binary must exit nonzero on each
//! violating fixture, zero on each clean one, traces must survive all
//! three output formats, renamed-lint baselines must keep suppressing,
//! and the repo itself must report nothing above the committed
//! baseline.

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
fn cost_constant_pair() {
    assert_pair(
        "cost-constant",
        "cost_constant_violating.rs",
        "cost_constant_clean.rs",
        4,
    );
}

#[test]
fn panic_path_pair() {
    assert_pair(
        "panic-path",
        "panic_path_violating.rs",
        "panic_path_clean.rs",
        3,
    );
}

#[test]
fn event_typestate_pair() {
    assert_pair(
        "event-typestate",
        "event_typestate_violating.rs",
        "event_typestate_clean.rs",
        4,
    );
}

#[test]
fn lexer_desync_fixture_stays_clean() {
    // Nested block comments and the full escape set: if the lexer
    // loses a literal boundary, the fixture's trap strings leak
    // panic-path bait as real tokens and this clean check fails.
    let (ok, stdout) = run_fixture("lexer_desync_clean.rs");
    assert!(ok, "lexer desync leaked tokens:\n{stdout}");
    assert!(stdout.starts_with("cce-analyze: 0 finding(s)"), "{stdout}");
}

#[test]
fn diagnostics_are_file_line_clickable() {
    let (_, stdout) = run_fixture("panic_path_violating.rs");
    let first = stdout.lines().next().expect("at least one line");
    assert!(
        first.contains("panic_path_violating.rs:3: [panic-path]"),
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
    let out = run(&["--format", "json", &fixture("cost_constant_violating.rs")]);
    assert!(!out.status.success());
    let doc =
        Json::parse(std::str::from_utf8(&out.stdout).expect("utf-8")).expect("json output parses");
    let findings = doc
        .get("findings")
        .and_then(Json::as_arr)
        .expect("findings");
    assert_eq!(doc.get("total").and_then(Json::as_u64), Some(4));
    assert_eq!(findings.len(), 4);
    let first = &findings[0];
    assert_eq!(
        first.get("lint").and_then(Json::as_str),
        Some("cost-constant")
    );
    assert!(first.get("line").and_then(Json::as_u64).is_some());
    assert!(first
        .get("file")
        .and_then(Json::as_str)
        .expect("file")
        .ends_with("cost_constant_violating.rs"));
}

#[test]
fn baseline_ratchets_findings_to_zero_but_not_below() {
    let baseline_path =
        std::env::temp_dir().join(format!("cce-analyze-golden-{}.json", std::process::id()));
    let baseline = baseline_path.to_string_lossy().into_owned();
    let target = fixture("panic_path_violating.rs");

    // Capture today's debt.
    let out = run(&[&target, "--baseline", &baseline, "--update-baseline"]);
    assert!(out.status.success(), "update-baseline failed");

    // Inside the budget: suppressed.
    let out = run(&[&target, "--baseline", &baseline]);
    assert!(out.status.success(), "within-baseline run must pass");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(stdout.contains("3 suppressed by baseline"), "{stdout}");

    // Paying the debt down without refreshing the baseline is itself a
    // failure, so the reduction gets locked in rather than left as
    // headroom to regress into.
    let out = run(&[&fixture("panic_path_clean.rs"), "--baseline", &baseline]);
    assert!(!out.status.success(), "stale baseline must fail");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(stdout.contains("baseline is stale"), "{stdout}");

    // A baseline for a different file transfers no budget.
    let out = run(&[
        &fixture("cost_constant_violating.rs"),
        "--baseline",
        &baseline,
    ]);
    assert!(!out.status.success(), "budget must not transfer");

    std::fs::remove_file(&baseline_path).ok();
}

#[test]
fn baselines_written_under_old_lint_names_keep_suppressing() {
    // A baseline committed before the nondet-iter → nondet-taint
    // rename must migrate its buckets, not silently drop them.
    let baseline_path =
        std::env::temp_dir().join(format!("cce-analyze-rename-{}.json", std::process::id()));
    let target = fixture("nondet_taint_violating.rs");
    let old_style =
        format!("{{\"version\":1,\"counts\":{{\"nondet-iter\":{{\"{target}\":3}}}}}}\n");
    std::fs::write(&baseline_path, old_style).expect("write old-style baseline");

    let baseline = baseline_path.to_string_lossy().into_owned();
    let out = run(&[&target, "--baseline", &baseline]);
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(
        out.status.success(),
        "old-name budgets must cover the successor lint:\n{stdout}"
    );
    assert!(stdout.contains("3 suppressed by baseline"), "{stdout}");

    std::fs::remove_file(&baseline_path).ok();
}

#[test]
fn wall_time_budget_gates_the_run() {
    // An absurdly generous budget passes…
    let out = run(&[&fixture("panic_path_clean.rs"), "--budget-ms", "600000"]);
    assert!(out.status.success());
    // …an impossible one fails even with zero findings above baseline.
    // (The whole-repo scan always takes longer than 0 ms; a single
    // tiny fixture can round down to it.)
    let root = repo_root();
    let out = run(&[
        "--root",
        &root.to_string_lossy(),
        "--baseline",
        &root.join("analyze-baseline.json").to_string_lossy(),
        "--budget-ms",
        "0",
    ]);
    assert!(!out.status.success(), "0ms budget must fail");
    let stderr = String::from_utf8(out.stderr).expect("utf-8");
    assert!(stderr.contains("exceeded --budget-ms"), "{stderr}");
}

#[test]
fn usage_errors_exit_two() {
    let out = run(&["--format", "yaml"]);
    assert_eq!(out.status.code(), Some(2));
    let out = run(&["--update-baseline"]);
    assert_eq!(out.status.code(), Some(2));
    let out = run(&["--no-such-flag"]);
    assert_eq!(out.status.code(), Some(2));
    let out = run(&["--budget-ms", "lots"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn repo_reports_nothing_above_committed_baseline() {
    let root = repo_root();
    let baseline = root.join("analyze-baseline.json");
    assert!(
        baseline.is_file(),
        "analyze-baseline.json must be committed at the repo root"
    );
    let out = run(&[
        "--root",
        &root.to_string_lossy(),
        "--baseline",
        &baseline.to_string_lossy(),
    ]);
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(
        out.status.success(),
        "repo has findings above baseline:\n{stdout}"
    );
}

#[test]
fn typestate_path_traces_are_identical_across_formats() {
    // The same (file, line) hop sequences must come out of the text
    // renderer, the JSON trace arrays, and the SARIF codeFlows.
    let target = fixture("event_typestate_violating.rs");

    // Text: continuation lines carry "label (file:line)".
    let (ok, stdout) = run_fixture("event_typestate_violating.rs");
    assert!(!ok);
    let mut text_hops: Vec<Vec<(String, u64)>> = Vec::new();
    for line in stdout.lines() {
        if line.contains("[event-typestate]") {
            text_hops.push(Vec::new());
        } else if let Some(rest) = line.strip_prefix("    ") {
            let loc = rest.rsplit('(').next().expect("hop location");
            let loc = loc.trim_end_matches(')');
            let (file, ln) = loc.rsplit_once(':').expect("file:line");
            text_hops
                .last_mut()
                .expect("hop follows a finding")
                .push((file.to_owned(), ln.parse().expect("line number")));
        }
    }
    assert_eq!(text_hops.len(), 4, "{stdout}");
    assert!(
        text_hops.iter().all(|t| t.len() >= 2),
        "every finding is multi-hop: {text_hops:?}"
    );
    assert!(
        text_hops.iter().any(|t| t.len() >= 3),
        "the interprocedural finding crosses a call: {text_hops:?}"
    );

    // JSON.
    let out = run(&["--format", "json", &target]);
    let doc = Json::parse(std::str::from_utf8(&out.stdout).expect("utf-8")).expect("json parses");
    let findings = doc
        .get("findings")
        .and_then(Json::as_arr)
        .expect("findings");
    let json_hops: Vec<Vec<(String, u64)>> = findings
        .iter()
        .map(|f| {
            f.get("trace")
                .and_then(Json::as_arr)
                .expect("every typestate finding has a trace")
                .iter()
                .map(|h| {
                    (
                        h.get("file")
                            .and_then(Json::as_str)
                            .expect("file")
                            .to_owned(),
                        h.get("line").and_then(Json::as_u64).expect("line"),
                    )
                })
                .collect()
        })
        .collect();
    assert_eq!(json_hops, text_hops, "JSON trace must match the text hops");

    // SARIF codeFlows.
    let out = run(&["--format", "sarif", &target]);
    let doc = Json::parse(std::str::from_utf8(&out.stdout).expect("utf-8")).expect("sarif parses");
    assert_eq!(doc.get("version").and_then(Json::as_str), Some("2.1.0"));
    let results = doc
        .get("runs")
        .and_then(Json::as_arr)
        .and_then(|r| r[0].get("results"))
        .and_then(Json::as_arr)
        .expect("results");
    let sarif_hops: Vec<Vec<(String, u64)>> = results
        .iter()
        .map(|r| {
            r.get("codeFlows")
                .and_then(Json::as_arr)
                .and_then(|cf| cf[0].get("threadFlows"))
                .and_then(Json::as_arr)
                .and_then(|tf| tf[0].get("locations"))
                .and_then(Json::as_arr)
                .expect("codeFlows locations")
                .iter()
                .map(|l| {
                    let phys = l
                        .get("location")
                        .and_then(|loc| loc.get("physicalLocation"))
                        .expect("physicalLocation");
                    (
                        phys.get("artifactLocation")
                            .and_then(|a| a.get("uri"))
                            .and_then(Json::as_str)
                            .expect("uri")
                            .to_owned(),
                        phys.get("region")
                            .and_then(|r| r.get("startLine"))
                            .and_then(Json::as_u64)
                            .expect("startLine"),
                    )
                })
                .collect()
        })
        .collect();
    assert_eq!(
        sarif_hops, text_hops,
        "SARIF codeFlows must match the text hops"
    );
}

#[test]
fn git_diff_mode_reports_only_changed_files() {
    use std::fs;
    let root = std::env::temp_dir().join(format!("cce-analyze-gitdiff-{}", std::process::id()));
    fs::remove_dir_all(&root).ok();
    for krate in ["core", "sim"] {
        fs::create_dir_all(root.join(format!("crates/{krate}/src"))).expect("mkdir");
        fs::write(
            root.join(format!("crates/{krate}/src/lib.rs")),
            "pub fn f(v: Option<u32>) -> u32 {\n    v.unwrap()\n}\n",
        )
        .expect("write");
    }
    let git = |args: &[&str]| {
        let out = Command::new("git")
            .arg("-C")
            .arg(&root)
            .args(args)
            .output()
            .expect("spawn git");
        assert!(out.status.success(), "git {args:?}: {out:?}");
    };
    git(&["init", "-q"]);
    git(&["add", "-A"]);
    git(&[
        "-c",
        "user.email=ci@example.invalid",
        "-c",
        "user.name=ci",
        "commit",
        "-q",
        "-m",
        "seed",
    ]);
    // Change only the sim crate.
    fs::write(
        root.join("crates/sim/src/lib.rs"),
        "pub fn f(v: Option<u32>) -> u32 {\n    v.unwrap()\n}\n// touched\n",
    )
    .expect("rewrite");

    let out = run(&["--root", &root.to_string_lossy(), "--git-diff", "HEAD"]);
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(
        !out.status.success(),
        "changed file still violates:\n{stdout}"
    );
    assert!(stdout.contains("crates/sim/src/lib.rs"), "{stdout}");
    assert!(
        !stdout.contains("crates/core/src/lib.rs"),
        "unchanged files are filtered out:\n{stdout}"
    );
    assert!(stdout.contains("1 finding(s)"), "{stdout}");

    // A full scan of the same tree reports both.
    let out = run(&["--root", &root.to_string_lossy()]);
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(stdout.contains("2 finding(s)"), "{stdout}");

    fs::remove_dir_all(&root).ok();
}

#[test]
fn git_diff_usage_and_failures_exit_two() {
    // An unknown revision is an I/O-style error, not a silent pass.
    let root = repo_root();
    let out = run(&[
        "--root",
        &root.to_string_lossy(),
        "--git-diff",
        "no-such-rev-xyzzy",
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    // Mixing incremental mode with explicit fixture files is a usage
    // error.
    let out = run(&["--git-diff", "HEAD", &fixture("panic_path_clean.rs")]);
    assert_eq!(out.status.code(), Some(2));
}
