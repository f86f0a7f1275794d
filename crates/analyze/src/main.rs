//! CLI entry point; see `cce-analyze --help` or DESIGN.md §9.

#![deny(unsafe_code)]

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use cce_analyze::{sarif, scan_fixtures, scan_repo, Baseline, Finding};
use cce_util::Json;

const USAGE: &str = "\
cce-analyze — repo-specific static analysis (see DESIGN.md §9)

USAGE:
    cce-analyze [OPTIONS] [FILES...]

With no FILES, lints every crates/*/src/**/*.rs under --root using the
per-crate scoping rules; the interprocedural passes (nondet-taint,
event-typestate) see the whole workspace at once. With FILES, lints exactly
those files as one miniature workspace with every lint enabled and no
path exemptions (fixture mode).

OPTIONS:
    --root DIR          Repository root to scan (default: .)
    --format FMT        Output format: text | json | sarif (default: text)
    --baseline FILE     Suppress findings covered by this ratchet file
    --update-baseline   Rewrite --baseline FILE from current findings
    --budget-ms N       Fail (exit 1) if analysis exceeds N milliseconds
    --git-diff REV      Incremental mode: scan the whole workspace (the
                        symbol table, call graph and summaries stay
                        workspace-wide) but report only findings in
                        files changed since REV (`git diff --name-only
                        REV`). Stale-baseline enforcement is skipped —
                        unchanged buckets would look paid-down.
    -h, --help          Show this help

EXIT CODES:
    0  no findings above baseline, baseline not stale
    1  findings reported, the baseline over-budgets a paid-down file
       (rerun with --update-baseline to lock the reduction in), or the
       --budget-ms wall-time budget was exceeded
    2  usage or I/O error";

/// `(lint, file, budget, current)` from [`Baseline::stale_buckets`].
type StaleBucket = (String, String, usize, usize);

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
    Sarif,
}

struct Options {
    root: PathBuf,
    format: Format,
    baseline: Option<PathBuf>,
    update_baseline: bool,
    budget_ms: Option<u64>,
    git_diff: Option<String>,
    files: Vec<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
    let mut opts = Options {
        root: PathBuf::from("."),
        format: Format::Text,
        baseline: None,
        update_baseline: false,
        budget_ms: None,
        git_diff: None,
        files: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-h" | "--help" => return Ok(None),
            "--root" => {
                let dir = it.next().ok_or("--root needs a directory")?;
                opts.root = PathBuf::from(dir);
            }
            "--format" => match it.next().map(String::as_str) {
                Some("text") => opts.format = Format::Text,
                Some("json") => opts.format = Format::Json,
                Some("sarif") => opts.format = Format::Sarif,
                other => {
                    return Err(format!(
                        "--format must be text, json, or sarif, got {other:?}"
                    ))
                }
            },
            "--baseline" => {
                let file = it.next().ok_or("--baseline needs a file")?;
                opts.baseline = Some(PathBuf::from(file));
            }
            "--update-baseline" => opts.update_baseline = true,
            "--git-diff" => {
                let rev = it.next().ok_or("--git-diff needs a revision")?;
                opts.git_diff = Some(rev.clone());
            }
            "--budget-ms" => {
                let n = it.next().ok_or("--budget-ms needs a number")?;
                opts.budget_ms = Some(n.parse().map_err(|e| format!("--budget-ms {n}: {e}"))?);
            }
            flag if flag.starts_with('-') => return Err(format!("unknown option {flag}")),
            file => opts.files.push(PathBuf::from(file)),
        }
    }
    if opts.update_baseline && opts.baseline.is_none() {
        return Err("--update-baseline needs --baseline FILE".to_owned());
    }
    if opts.git_diff.is_some() && !opts.files.is_empty() {
        return Err("--git-diff applies to repo scans, not explicit FILES".to_owned());
    }
    Ok(Some(opts))
}

/// Repo-relative paths (forward slashes) changed since `rev`, per
/// `git -C root diff --name-only rev`.
fn changed_files(root: &std::path::Path, rev: &str) -> Result<BTreeSet<String>, String> {
    let output = Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["diff", "--name-only", rev])
        .output()
        .map_err(|e| format!("running git diff: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "git diff --name-only {rev} failed: {}",
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    Ok(String::from_utf8_lossy(&output.stdout)
        .lines()
        .map(|l| l.trim().replace('\\', "/"))
        .filter(|l| !l.is_empty())
        .collect())
}

fn findings_json(findings: &[Finding], suppressed: usize, stale: &[StaleBucket]) -> Json {
    Json::obj(vec![
        (
            "findings",
            Json::Arr(
                findings
                    .iter()
                    .map(|f| {
                        let mut pairs = vec![
                            ("file", Json::from(f.file.as_str())),
                            ("line", Json::from(f.line)),
                            ("lint", Json::from(f.lint)),
                            ("message", Json::from(f.message.as_str())),
                        ];
                        if !f.trace.is_empty() {
                            pairs.push((
                                "trace",
                                Json::Arr(
                                    f.trace
                                        .iter()
                                        .map(|h| {
                                            Json::obj(vec![
                                                ("file", Json::from(h.file.as_str())),
                                                ("line", Json::from(h.line)),
                                                ("label", Json::from(h.label.as_str())),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ));
                        }
                        Json::obj(pairs)
                    })
                    .collect(),
            ),
        ),
        ("total", Json::from(findings.len())),
        ("suppressed_by_baseline", Json::from(suppressed)),
        (
            "stale_baseline",
            Json::Arr(
                stale
                    .iter()
                    .map(|(lint, file, budget, current)| {
                        Json::obj(vec![
                            ("lint", Json::from(lint.as_str())),
                            ("file", Json::from(file.as_str())),
                            ("budget", Json::from(*budget)),
                            ("current", Json::from(*current)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let Some(opts) = parse_args(args)? else {
        println!("{USAGE}");
        return Ok(ExitCode::SUCCESS);
    };

    let started = Instant::now();
    let mut findings = if opts.files.is_empty() {
        scan_repo(&opts.root).map_err(|e| format!("scanning {}: {e}", opts.root.display()))?
    } else {
        scan_fixtures(&opts.files).map_err(|e| format!("fixture scan: {e}"))?
    };
    let incremental = match &opts.git_diff {
        Some(rev) => {
            let changed = changed_files(&opts.root, rev)?;
            findings.retain(|f| changed.contains(&f.file));
            true
        }
        None => false,
    };
    let elapsed_ms = u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX);

    if opts.update_baseline {
        let path = opts.baseline.as_ref().expect("checked in parse_args");
        let text = Baseline::from_findings(&findings)
            .to_json()
            .to_string_compact();
        std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "cce-analyze: wrote baseline {} covering {} finding(s)",
            path.display(),
            findings.len()
        );
        return Ok(ExitCode::SUCCESS);
    }

    let baseline = match &opts.baseline {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
            Baseline::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?
        }
        None => Baseline::empty(),
    };
    let stale = if incremental {
        // Buckets in unchanged files would all look paid-down.
        Vec::new()
    } else {
        baseline.stale_buckets(&findings)
    };
    let (kept, suppressed) = baseline.apply(findings);
    let over_budget = opts.budget_ms.is_some_and(|b| elapsed_ms > b);

    match opts.format {
        Format::Json => println!(
            "{}",
            findings_json(&kept, suppressed, &stale).to_string_compact()
        ),
        Format::Sarif => println!("{}", sarif::to_sarif(&kept).to_string_compact()),
        Format::Text => {
            for f in &kept {
                println!("{f}");
                for hop in &f.trace {
                    println!("    {} ({}:{})", hop.label, hop.file, hop.line);
                }
            }
            for (lint, file, budget, current) in &stale {
                println!(
                    "cce-analyze: baseline is stale for {file}: [{lint}] budget {budget}, \
                     current {current}; run --update-baseline to lock the reduction in"
                );
            }
            println!(
                "cce-analyze: {} finding(s), {} suppressed by baseline, {} stale baseline bucket(s)",
                kept.len(),
                suppressed,
                stale.len()
            );
        }
    }
    if over_budget {
        eprintln!(
            "cce-analyze: wall time {elapsed_ms} ms exceeded --budget-ms {}",
            opts.budget_ms.unwrap_or(0)
        );
    }
    Ok(if kept.is_empty() && stale.is_empty() && !over_budget {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("cce-analyze: {message}");
            ExitCode::from(2)
        }
    }
}
