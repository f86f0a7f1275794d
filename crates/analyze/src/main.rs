//! CLI entry point; see `cce-analyze --help` or DESIGN.md §9.

#![deny(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use cce_analyze::{sarif, scan_fixtures, scan_repo, Finding};
use cce_util::Json;

const USAGE: &str = "\
cce-analyze — repo-specific static analysis (see DESIGN.md §9)

USAGE:
    cce-analyze [OPTIONS] [FILES...]

With no FILES, runs the nondet-taint lint over every crates/*/src/**/*.rs
under --root as one workspace, reporting sources in the crates it
scopes. With FILES, lints exactly those files as one miniature
workspace with no crate scoping (fixture mode).

OPTIONS:
    --root DIR          Repository root to scan (default: .)
    --format FMT        Output format: text | json | sarif (default: text)
    --budget-ms N       Fail (exit 1) if analysis exceeds N milliseconds
    -h, --help          Show this help

EXIT CODES:
    0  no findings
    1  findings reported, or the --budget-ms wall-time budget was
       exceeded
    2  usage or I/O error";

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
    Sarif,
}

struct Options {
    root: PathBuf,
    format: Format,
    budget_ms: Option<u64>,
    files: Vec<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
    let mut opts = Options {
        root: PathBuf::from("."),
        format: Format::Text,
        budget_ms: None,
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
            "--budget-ms" => {
                let n = it.next().ok_or("--budget-ms needs a number")?;
                opts.budget_ms = Some(n.parse().map_err(|e| format!("--budget-ms {n}: {e}"))?);
            }
            flag if flag.starts_with('-') => return Err(format!("unknown option {flag}")),
            file => opts.files.push(PathBuf::from(file)),
        }
    }
    Ok(Some(opts))
}

fn findings_json(findings: &[Finding]) -> Json {
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
    ])
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let Some(opts) = parse_args(args)? else {
        println!("{USAGE}");
        return Ok(ExitCode::SUCCESS);
    };

    let started = Instant::now();
    let findings = if opts.files.is_empty() {
        scan_repo(&opts.root).map_err(|e| format!("scanning {}: {e}", opts.root.display()))?
    } else {
        scan_fixtures(&opts.files).map_err(|e| format!("fixture scan: {e}"))?
    };
    let elapsed_ms = u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX);
    let over_budget = opts.budget_ms.is_some_and(|b| elapsed_ms > b);

    match opts.format {
        Format::Json => println!("{}", findings_json(&findings).to_string_compact()),
        Format::Sarif => println!("{}", sarif::to_sarif(&findings).to_string_compact()),
        Format::Text => {
            for f in &findings {
                println!("{f}");
                for hop in &f.trace {
                    println!("    {} ({}:{})", hop.label, hop.file, hop.line);
                }
            }
            println!("cce-analyze: {} finding(s)", findings.len());
        }
    }
    if over_budget {
        eprintln!(
            "cce-analyze: wall time {elapsed_ms} ms exceeded --budget-ms {}",
            opts.budget_ms.unwrap_or(0)
        );
    }
    Ok(if findings.is_empty() && !over_budget {
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
