//! Regenerators for every table and figure of the CGO 2004 paper.
//!
//! ```text
//! cargo run --release -p cce-experiments -- <command> [--scale F] [--seed N] [--out PATH]
//!
//! commands:
//!   table1 fig3 fig4 fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13 fig14 fig15
//!   table2 sec5_3
//!   ablation future_work stability multiprog analysis shards tenants
//!              (beyond-the-paper studies)
//!   all        run everything and (with --out) write an EXPERIMENTS.md
//!
//! tools:
//!   trace      generate a catalog workload's trace (json or binary)
//!   replay     replay a saved trace, solo or as concurrent tenants
//!   convert    re-encode a saved trace between json and binary
//!   serve      open-loop traffic through the concurrent serving loop
//! ```
//!
//! Running with no command prints the full flag list. Speed numbers
//! come from `bash benchmark/run.sh`, not from this binary.
//!
//! `--scale` shrinks every workload proportionally (default 1.0 =
//! Table 1 superblock counts); `--seed` controls trace generation.

#![deny(unsafe_code)]

mod all;
mod chaining;
mod extensions;
mod fig9;
mod grid;
mod miss_figs;
mod overhead_figs;
mod serve_cmd;
mod shards;
mod stats_figs;
mod tenants;
mod tools;

use std::process::ExitCode;

/// Parsed command-line options.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload scale in (0, 1].
    pub scale: f64,
    /// Trace seed.
    pub seed: u64,
    /// Output file (in addition to stdout), if any.
    pub out: Option<String>,
    /// Benchmark name for the `trace` tool.
    pub bench: Option<String>,
    /// Saved-log path for the `replay`/`convert` tools.
    pub log: Option<String>,
    /// Cache pressure for the `replay` tool.
    pub pressure: Option<u32>,
    /// Trace encoding for the `trace`/`convert` tools (`json`/`binary`).
    pub format: Option<String>,
    /// Simulation worker threads (`--jobs`); `None` defers to the
    /// `CCE_JOBS` environment variable, then to available parallelism.
    pub jobs: Option<usize>,
    /// Tenant count for the `replay` tool's concurrent mode.
    pub tenants: Option<u32>,
    /// Worker threads for the `replay` tool's concurrent mode.
    pub threads: Option<usize>,
    /// Offered request rate for the `serve` benchmark.
    pub rps: Option<f64>,
    /// Target duration in seconds for the `serve` benchmark.
    pub duration: Option<f64>,
    /// Ingress budget in queued events for the `serve` benchmark.
    pub queue: Option<usize>,
    /// Zipf popularity exponent for the `serve` benchmark.
    pub skew: Option<f64>,
    /// Sweep engine (`--engine naive|ladder`); `None` means the
    /// default, the single-pass ladder.
    pub engine: Option<String>,
    /// Print progress to stderr.
    pub verbose: bool,
}

impl Options {
    /// Resolves `--engine`: figures default to the single-pass ladder
    /// (conformance-pinned byte-identical to the oracle); `--engine
    /// naive` falls back to one replay per grid cell.
    #[must_use]
    pub fn engine_choice(&self) -> cce_sim::Engine {
        match self.engine.as_deref() {
            Some("naive") => cce_sim::Engine::Naive,
            _ => cce_sim::Engine::Ladder,
        }
    }
}

impl Default for Options {
    fn default() -> Options {
        Options {
            scale: 1.0,
            seed: 42,
            out: None,
            bench: None,
            log: None,
            pressure: None,
            format: None,
            jobs: None,
            tenants: None,
            threads: None,
            rps: None,
            duration: None,
            queue: None,
            skew: None,
            engine: None,
            verbose: true,
        }
    }
}

fn usage() -> &'static str {
    "usage: cce-experiments <command> [--scale F] [--seed N] [--jobs N] \
     [--engine naive|ladder] [--out PATH] [--quiet]\n\
     commands: table1 fig3 fig4 fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13 fig14 fig15 \
     table2 sec5_3 ablation future_work stability multiprog analysis shards tenants all\n     \
     tools: trace --bench <name> --out <path> [--format json|binary] | \
     replay --log <path> [--pressure N] [--tenants N --threads T] | \
     convert --log <in> --out <out> [--format json|binary] | \
     serve [--bench <name>] [--rps R] [--duration S] [--tenants N] [--threads T] \
     [--queue EVENTS] [--skew Z] [--seed N]"
}

fn parse_args(args: &[String]) -> Result<(String, Options), String> {
    let mut cmd = None;
    let mut opts = Options::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                let v = args.get(i).ok_or("--scale needs a value")?;
                opts.scale = v.parse().map_err(|_| format!("bad scale: {v}"))?;
                if !(opts.scale > 0.0 && opts.scale <= 1.0) {
                    return Err("scale must be in (0, 1]".to_owned());
                }
            }
            "--seed" => {
                i += 1;
                let v = args.get(i).ok_or("--seed needs a value")?;
                opts.seed = v.parse().map_err(|_| format!("bad seed: {v}"))?;
            }
            "--out" => {
                i += 1;
                opts.out = Some(args.get(i).ok_or("--out needs a path")?.clone());
            }
            "--bench" => {
                i += 1;
                opts.bench = Some(args.get(i).ok_or("--bench needs a name")?.clone());
            }
            "--log" => {
                i += 1;
                opts.log = Some(args.get(i).ok_or("--log needs a path")?.clone());
            }
            "--pressure" => {
                i += 1;
                let v = args.get(i).ok_or("--pressure needs a value")?;
                opts.pressure = Some(v.parse().map_err(|_| format!("bad pressure: {v}"))?);
            }
            "--format" => {
                i += 1;
                opts.format = Some(args.get(i).ok_or("--format needs a value")?.clone());
            }
            "--jobs" => {
                i += 1;
                let v = args.get(i).ok_or("--jobs needs a value")?;
                let n: usize = v.parse().map_err(|_| format!("bad jobs: {v}"))?;
                if n == 0 {
                    return Err("jobs must be at least 1".to_owned());
                }
                opts.jobs = Some(n);
            }
            "--tenants" => {
                i += 1;
                let v = args.get(i).ok_or("--tenants needs a value")?;
                let n: u32 = v.parse().map_err(|_| format!("bad tenants: {v}"))?;
                if n == 0 {
                    return Err("tenants must be at least 1".to_owned());
                }
                opts.tenants = Some(n);
            }
            "--threads" => {
                i += 1;
                let v = args.get(i).ok_or("--threads needs a value")?;
                let n: usize = v.parse().map_err(|_| format!("bad threads: {v}"))?;
                if n == 0 {
                    return Err("threads must be at least 1".to_owned());
                }
                opts.threads = Some(n);
            }
            "--rps" => {
                i += 1;
                let v = args.get(i).ok_or("--rps needs a value")?;
                let r: f64 = v.parse().map_err(|_| format!("bad rps: {v}"))?;
                if r <= 0.0 {
                    return Err("rps must be positive".to_owned());
                }
                opts.rps = Some(r);
            }
            "--duration" => {
                i += 1;
                let v = args.get(i).ok_or("--duration needs a value")?;
                let d: f64 = v.parse().map_err(|_| format!("bad duration: {v}"))?;
                if d <= 0.0 {
                    return Err("duration must be positive".to_owned());
                }
                opts.duration = Some(d);
            }
            "--queue" => {
                i += 1;
                let v = args.get(i).ok_or("--queue needs a value")?;
                let n: usize = v.parse().map_err(|_| format!("bad queue: {v}"))?;
                if n == 0 {
                    return Err("queue must be at least 1 event".to_owned());
                }
                opts.queue = Some(n);
            }
            "--skew" => {
                i += 1;
                let v = args.get(i).ok_or("--skew needs a value")?;
                let z: f64 = v.parse().map_err(|_| format!("bad skew: {v}"))?;
                if !(0.0..=8.0).contains(&z) {
                    return Err("skew must be in 0..=8".to_owned());
                }
                opts.skew = Some(z);
            }
            "--engine" => {
                i += 1;
                let v = args.get(i).ok_or("--engine needs a value")?;
                if v != "naive" && v != "ladder" {
                    return Err(format!("bad engine: {v} (expected naive or ladder)"));
                }
                opts.engine = Some(v.clone());
            }
            "--quiet" => opts.verbose = false,
            other if cmd.is_none() && !other.starts_with('-') => cmd = Some(other.to_owned()),
            other => return Err(format!("unknown argument: {other}")),
        }
        i += 1;
    }
    let cmd = cmd.ok_or_else(|| usage().to_owned())?;
    Ok((cmd, opts))
}

fn run(cmd: &str, opts: &Options) -> Result<String, String> {
    let output = match cmd {
        "table1" => stats_figs::table1(opts),
        "fig3" => stats_figs::fig3(opts),
        "fig4" => stats_figs::fig4(opts),
        "fig12" => stats_figs::fig12(opts),
        "fig6" => miss_figs::fig6(opts),
        "fig7" => miss_figs::fig7(opts),
        "fig8" => miss_figs::fig8(opts),
        "fig9" => fig9::fig9(opts),
        "fig10" => overhead_figs::fig10(opts),
        "fig11" => overhead_figs::fig11(opts),
        "fig13" => overhead_figs::fig13(opts),
        "fig14" => overhead_figs::fig14(opts),
        "fig15" => overhead_figs::fig15(opts),
        "table2" => chaining::table2(opts),
        "sec5_3" => chaining::sec5_3(opts),
        "ablation" => extensions::ablation(opts),
        "future_work" => extensions::future_work(opts),
        "stability" => extensions::stability(opts),
        "multiprog" => extensions::multiprog(opts),
        "analysis" => extensions::analysis(opts),
        "shards" => shards::shards(opts),
        "tenants" => tenants::tenants(opts),
        "trace" => return tools::trace(opts),
        "replay" => return tools::replay(opts),
        "convert" => return tools::convert(opts),
        "serve" => return serve_cmd::serve(opts),
        "all" => all::all(opts),
        other => return Err(format!("unknown command: {other}\n{}", usage())),
    };
    Ok(output)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, opts) = match parse_args(&args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    match run(&cmd, &opts) {
        Ok(output) => {
            println!("{output}");
            // These tools write their own --out file in a non-text format.
            let skip_generic_write = matches!(cmd.as_str(), "trace" | "convert");
            if let Some(path) = opts.out.as_ref().filter(|_| !skip_generic_write) {
                if let Err(e) = std::fs::write(path, &output) {
                    eprintln!("failed to write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!("wrote {path}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| (*x).to_owned()).collect()
    }

    #[test]
    fn parses_command_and_flags() {
        let (cmd, o) = parse_args(&s(&["fig6", "--scale", "0.5", "--seed", "7"])).unwrap();
        assert_eq!(cmd, "fig6");
        assert_eq!(o.scale, 0.5);
        assert_eq!(o.seed, 7);
    }

    #[test]
    fn parses_jobs() {
        let (_, o) = parse_args(&s(&["fig6", "--jobs", "4"])).unwrap();
        assert_eq!(o.jobs, Some(4));
        assert!(parse_args(&s(&["fig6", "--jobs", "0"])).is_err());
        assert!(parse_args(&s(&["fig6", "--jobs", "many"])).is_err());
    }

    #[test]
    fn parses_tenants_and_threads() {
        let (_, o) = parse_args(&s(&["replay", "--tenants", "3", "--threads", "2"])).unwrap();
        assert_eq!(o.tenants, Some(3));
        assert_eq!(o.threads, Some(2));
        assert!(parse_args(&s(&["replay", "--tenants", "0"])).is_err());
        assert!(parse_args(&s(&["replay", "--threads", "0"])).is_err());
    }

    #[test]
    fn parses_engine() {
        let (_, o) = parse_args(&s(&["fig6", "--engine", "naive"])).unwrap();
        assert_eq!(o.engine_choice(), cce_sim::Engine::Naive);
        let (_, o) = parse_args(&s(&["fig6", "--engine", "ladder"])).unwrap();
        assert_eq!(o.engine_choice(), cce_sim::Engine::Ladder);
        let (_, o) = parse_args(&s(&["fig6"])).unwrap();
        assert_eq!(o.engine_choice(), cce_sim::Engine::Ladder);
        assert!(parse_args(&s(&["fig6", "--engine", "magic"])).is_err());
    }

    #[test]
    fn rejects_bad_scale() {
        assert!(parse_args(&s(&["fig6", "--scale", "0"])).is_err());
        assert!(parse_args(&s(&["fig6", "--scale", "2"])).is_err());
    }

    #[test]
    fn rejects_unknown_flag() {
        assert!(parse_args(&s(&["fig6", "--what"])).is_err());
    }

    #[test]
    fn missing_command_is_usage_error() {
        assert!(parse_args(&s(&[])).is_err());
    }

    #[test]
    fn small_scale_smoke_every_command() {
        let opts = Options {
            scale: 0.02,
            seed: 1,
            verbose: false,
            ..Options::default()
        };
        for cmd in [
            "table1",
            "fig3",
            "fig4",
            "fig6",
            "fig8",
            "fig9",
            "fig12",
            "fig13",
            "table2",
            "ablation",
            "future_work",
            "stability",
            "multiprog",
            "analysis",
            "shards",
            "tenants",
        ] {
            let out = run(cmd, &opts).unwrap_or_else(|e| panic!("{cmd}: {e}"));
            assert!(!out.is_empty(), "{cmd} produced no output");
        }
    }
}
