//! One benchmark for both pipelines (see `benchmark/README.md`).
//!
//! With `--workload W` the process *is* that workload's run: it sets up
//! inputs from `--seed`, measures for `--seconds`, checks every output
//! and prints one JSON object as its last line. Without it, the process
//! runs every workload as its own child, one at a time, and prints the
//! table.

mod layers;
mod spec;
mod stats;
mod trace;
mod workloads;

use cce_util::Json;
use spec::{Metric, Spec};
use stats::{median, nth_best, percentile, supported_tail, worsening};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use trace::Tracer;
use workloads::{Kind, Pass, Sizing, Workload};

/// Rounds of set-up plus passes in a full untraced run: as many as
/// keep the set-ups within `SETUP_BUDGET_SECONDS` together, judged by
/// the first one, within these limits.
const MIN_ROUNDS: usize = 3;
const MAX_ROUNDS: usize = 8;
const SETUP_BUDGET_SECONDS: f64 = 2.0;

/// A pass time or rate is reported from the run's third-best pass: the
/// median follows the host's noise, which comes in stretches longer
/// than a pass and only ever slows one down, and the very best can be
/// a freak (`benchmark/README.md` has the measurements).
const BEST_RANK: usize = 3;

/// Share of `--seconds` a traced run spends on the workload's own
/// passes (half of them traced); the layer probes take the rest.
const TRACED_PASS_SHARE: f64 = 0.4;

#[derive(Debug, Clone)]
struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    repeat_check: bool,
    /// Run the layer probes in a traced child (the orchestrator asks
    /// only its first child for them).
    probes: bool,
}

const USAGE: &str = "usage: benchmark/run.sh [--workload NAME|all] [--seed N] [--seconds S] \
[--trace [0|1]] [--smoke] [--repeat-check]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 7,
        seconds: None,
        trace: false,
        smoke: false,
        repeat_check: false,
        probes: true,
    };
    let mut it = argv.iter().peekable();
    let flag01 = |v: &str| match v {
        "0" => Some(false),
        "1" => Some(true),
        _ => None,
    };
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                args.workload = match name.as_str() {
                    "all" => None,
                    n => Some(Kind::from_name(n).ok_or_else(|| format!("unknown workload `{n}`"))?),
                };
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed needs a whole number".to_owned())?;
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds needs a number".to_owned())?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_owned());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                // Bare `--trace` means on; the driver passes 0 or 1.
                args.trace = match it.peek().and_then(|v| flag01(v)) {
                    Some(on) => {
                        it.next();
                        on
                    }
                    None => true,
                };
            }
            "--probes" => {
                args.probes = flag01(&value("--probes")?).ok_or("--probes takes 0 or 1")?;
            }
            "--smoke" => args.smoke = true,
            "--repeat-check" => args.repeat_check = true,
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(args)
}

/// Machine context recorded with every result.
fn context(args: &Args, seconds: f64) -> Json {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_owned());
    Json::obj(vec![
        (
            "nproc",
            Json::Int(std::thread::available_parallelism().map_or(1, |n| n.get() as i64)),
        ),
        ("rustc", Json::Str(env("BENCH_RUSTC"))),
        (
            "profile",
            Json::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .to_owned(),
            ),
        ),
        ("commit", Json::Str(env("BENCH_COMMIT"))),
        ("seed", Json::Int(args.seed as i64)),
        ("seconds", Json::Float(seconds)),
        ("trace", Json::Bool(args.trace)),
        ("smoke", Json::Bool(args.smoke)),
    ])
}

/// The process's peak resident set so far (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// Where `out/` lives: beside `run.sh`.
fn out_dir() -> PathBuf {
    std::env::var_os("BENCH_DIR")
        .map_or_else(|| PathBuf::from("benchmark"), PathBuf::from)
        .join("out")
}

/// A measured value, or why the host could not measure it.
type Value = Result<f64, &'static str>;

/// What one workload run reports.
struct RunResult {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, Value)>,
}

/// Runs passes of `workload` until `sizing.seconds` are spent (or
/// exactly `sizing.passes`), appending to `passes`. `traced(i)` says
/// whether pass `i` records spans.
fn measure(
    workload: &mut dyn Workload,
    t: &mut Tracer,
    sizing: Sizing,
    traced: impl Fn(usize) -> bool,
    passes: &mut Vec<(f64, Pass)>,
) -> Result<(), String> {
    let started = Instant::now();
    let first = passes.len();
    loop {
        t.enabled = traced(passes.len());
        let t0 = Instant::now();
        let pass = t.span("pass", 0, |t| workload.pass(t))?;
        passes.push((t0.elapsed().as_secs_f64(), pass));
        let done = passes.len() - first;
        let elapsed = started.elapsed().as_secs_f64();
        let enough = match sizing.passes {
            Some(n) => done >= n,
            // Stop where the budget is met most closely: before a pass
            // that would overshoot it by more than half of itself.
            None => elapsed + elapsed / done as f64 / 2.0 >= sizing.seconds,
        };
        if enough {
            return Ok(());
        }
    }
}

fn tally(passes: &[(f64, Pass)]) -> (u64, u64) {
    passes
        .iter()
        .fold((0, 0), |(a, f), (_, p)| (a + p.attempted, f + p.failed))
}

/// The untraced run: every end-to-end metric.
///
/// The run is several rounds of set-up plus passes, so `setup_s` is a
/// median over fresh set-ups and the passes are spread over the run's
/// whole wall time rather than one stretch of it.
fn run_end_to_end(kind: Kind, args: &Args, seconds: f64) -> Result<RunResult, String> {
    let mut rounds = if args.smoke { 1 } else { MIN_ROUNDS };
    let mut sizing = Sizing {
        smoke: args.smoke,
        seconds,
        passes: args.smoke.then_some(1),
    };
    let mut t = Tracer::new(kind.name(), false);
    let mut setups = Vec::new();
    let mut passes = Vec::new();
    let mut peak_rss = None;
    while setups.len() < rounds {
        let t0 = Instant::now();
        let mut workload = workloads::setup(kind, &mut t, args.seed, sizing)?;
        let setup = t0.elapsed().as_secs_f64();
        if setups.is_empty() && !args.smoke {
            // A cheap set-up is repeated more often: its median is what
            // `setup_s` reports.
            rounds = ((SETUP_BUDGET_SECONDS / setup) as usize).clamp(MIN_ROUNDS, MAX_ROUNDS);
            sizing.seconds = seconds / rounds as f64;
        }
        setups.push(setup);
        measure(workload.as_mut(), &mut t, sizing, |_| false, &mut passes)?;
        // One set-up and its passes are what a user who runs the job
        // once pays for. The later rounds are the harness repeating
        // itself, and what the allocator keeps between them (4 to 23 MB
        // on `tenants_concurrent`, at random) is not the program's.
        if peak_rss.is_none() {
            peak_rss = Some(peak_rss_mb()?);
        }
    }

    let walls: Vec<f64> = passes.iter().map(|(w, _)| *w).collect();
    let rates: Vec<f64> = passes
        .iter()
        .map(|(w, p)| p.applied as f64 / w / 1e6)
        .collect();
    let serve: Vec<_> = passes.iter().filter_map(|(_, p)| p.serve).collect();
    let latency_us = if serve.is_empty() {
        // A batch workload's operation is the whole pass.
        nth_best(&walls, BEST_RANK, false).map(|s| s * 1e6)
    } else {
        median(&serve.iter().map(|s| s.p50_us).collect::<Vec<_>>())
    };
    let sum = |f: fn(&Pass) -> f64| passes.iter().map(|(_, p)| f(p)).sum::<f64>();
    let (attempted, failed) = tally(&passes);
    let need = |v: Option<f64>| v.ok_or("no passes were measured");
    let metrics = vec![
        ("setup_s", need(median(&setups))?),
        ("mevents_per_s", need(nth_best(&rates, BEST_RANK, true))?),
        ("latency_us", need(latency_us)?),
        (
            "applied_share",
            sum(|p| p.applied as f64) / sum(|p| p.offered as f64).max(1.0),
        ),
        ("peak_rss_mb", need(peak_rss)?),
    ];
    let tail = supported_tail(walls.len()).map_or_else(
        || "no percentile has ten passes beyond it".to_owned(),
        |q| {
            format!(
                "p{} {:.0} us",
                q * 100.0,
                percentile(&walls, q).unwrap_or(f64::NAN) * 1e6
            )
        },
    );
    println!(
        "# {} passes over {rounds} set-ups; pass time median {:.0} us, {tail}",
        walls.len(),
        need(median(&walls))? * 1e6
    );
    Ok(RunResult {
        attempted,
        failed,
        metrics: metrics
            .into_iter()
            .map(|(n, v)| (n.to_owned(), Ok(v)))
            .collect(),
    })
}

/// The traced run: the workload's own passes with and without spans,
/// then the layer probes; every per-layer metric.
fn run_traced(kind: Kind, args: &Args, seconds: f64) -> Result<RunResult, String> {
    let sizing = Sizing {
        smoke: args.smoke,
        seconds: seconds * TRACED_PASS_SHARE,
        passes: args.smoke.then_some(2),
    };
    let mut t = Tracer::new(kind.name(), true);
    let mut workload = t.span("setup", 0, |t| workloads::setup(kind, t, args.seed, sizing))?;
    // Untraced and traced passes alternate, so both see the same
    // stretch of host time.
    let mut passes = Vec::new();
    measure(
        workload.as_mut(),
        &mut t,
        sizing,
        |i| i % 2 == 1,
        &mut passes,
    )?;
    if passes.len() % 2 == 1 {
        let one_more = Sizing {
            passes: Some(1),
            ..sizing
        };
        measure(workload.as_mut(), &mut t, one_more, |_| true, &mut passes)?;
    }
    drop(workload);
    t.enabled = true;

    let walls_of = |traced: usize| -> Vec<f64> {
        passes
            .iter()
            .skip(traced)
            .step_by(2)
            .map(|(w, _)| *w)
            .collect()
    };
    let overhead = nth_best(&walls_of(1), BEST_RANK, false)
        .zip(nth_best(&walls_of(0), BEST_RANK, false))
        .map(|(traced, plain)| (traced - plain) / plain)
        .ok_or("no traced passes")?;
    let (attempted, failed) = tally(&passes);
    let sim = passes.last().map(|(_, p)| p.sim).unwrap_or_default();
    let mut metrics: Vec<(String, Value)> = [
        ("org.misses", sim.misses as f64),
        ("org.evictions", sim.evictions as f64),
        ("org.bytes_evicted", sim.bytes_evicted as f64),
        ("links.unlink_ops", sim.unlink_ops as f64),
        ("links.links_unlinked", sim.links_unlinked as f64),
        ("overhead.eq2_instr", sim.eq2),
        ("overhead.eq3_instr", sim.eq3),
        ("overhead.eq4_instr", sim.eq4),
        (
            "sim.miss_rate",
            sim.misses as f64 / sim.accesses.max(1) as f64,
        ),
        (
            "sim.overhead_per_access",
            (sim.eq2 + sim.eq3 + sim.eq4) / sim.accesses.max(1) as f64,
        ),
        ("sim.digest48", sim.digest48() as f64),
        ("trace.overhead_share", overhead),
    ]
    .into_iter()
    .map(|(n, v)| (n.to_owned(), Ok(v)))
    .collect();

    let mut extra = Vec::new();
    if args.probes {
        let layers = t.span("probes", 0, |t| {
            layers::run_probes(t, args.seed, args.smoke)
        })?;
        println!(
            "# dominant replay layer: {} (evict), {} (hit)",
            layers.dominant_evict, layers.dominant_hit
        );
        extra.push((
            "dominant_layer",
            Json::obj(vec![
                ("evict", Json::Str(layers.dominant_evict.to_owned())),
                ("hit", Json::Str(layers.dominant_hit.to_owned())),
            ]),
        ));
        metrics.extend(layers.metrics.into_iter().map(|(n, v)| (n.to_owned(), v)));
    }

    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace.{}.json", kind.name()));
    extra.push(("metrics", metrics_json(&metrics, None)));
    let doc = t.to_json(context(args, seconds), extra);
    std::fs::write(&path, doc.to_string_compact() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# {} spans written to {}", t.spans().len(), path.display());
    Ok(RunResult {
        attempted,
        failed,
        metrics,
    })
}

/// `{"name": {"value": v, "unit": u}}`; a withheld value is `null` with
/// its reason.
fn metrics_json(metrics: &[(String, Value)], declared: Option<&[Metric]>) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|(name, value)| {
                let mut pairs = vec![match value {
                    Ok(v) => ("value", Json::Float(*v)),
                    Err(_) => ("value", Json::Null),
                }];
                if let Some(m) = declared.and_then(|d| d.iter().find(|m| m.name == *name)) {
                    pairs.push(("unit", Json::Str(m.unit.clone())));
                }
                if let Err(reason) = value {
                    pairs.push(("reason", Json::Str((*reason).to_owned())));
                }
                (name.clone(), Json::obj(pairs))
            })
            .collect(),
    )
}

/// One workload in this process. Prints the metrics by name and, last,
/// the result object.
fn run_child(kind: Kind, args: &Args, spec: &Spec) -> Result<bool, String> {
    let seconds = args.seconds.unwrap_or(spec.run_seconds as f64);
    println!(
        "# workload {} {}",
        kind.name(),
        context(args, seconds).to_string_compact()
    );
    let (result, declared) = if args.trace {
        (run_traced(kind, args, seconds)?, &spec.per_layer)
    } else {
        (run_end_to_end(kind, args, seconds)?, &spec.end_to_end)
    };
    // The declaration is the contract: nothing undeclared goes out, and
    // a full run leaves nothing declared unreported.
    for (name, _) in &result.metrics {
        if !declared.iter().any(|m| m.name == *name) {
            return Err(format!("metric `{name}` is not declared in BENCHMARK.json"));
        }
    }
    if !args.trace || args.probes {
        for m in declared {
            if !result.metrics.iter().any(|(n, _)| *n == m.name) {
                return Err(format!("declared metric `{}` was not measured", m.name));
            }
        }
    }
    for (name, value) in &result.metrics {
        let unit = declared
            .iter()
            .find(|m| m.name == *name)
            .map_or("", |m| m.unit.as_str());
        match value {
            Ok(v) => println!("{name} {v} {unit}"),
            Err(reason) => println!("{name} null {unit} ({reason})"),
        }
    }
    let correct = result.failed == 0;
    let line = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(result.attempted as i64)),
        ("failed", Json::Int(result.failed as i64)),
        ("metrics", metrics_json(&result.metrics, Some(declared))),
    ]);
    println!("{}", line.to_string_compact());
    Ok(correct)
}

// ---------------------------------------------------------------------
// Orchestration: every workload as its own child, one at a time.
// ---------------------------------------------------------------------

/// A child's parsed result line.
struct ChildResult {
    kind: Kind,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, Option<f64>)>,
    /// The child's `#` lines after the first: pass counts, the dominant
    /// layer, where the trace went.
    notes: Vec<String>,
}

fn spawn_child(kind: Kind, args: &Args, probes: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", kind.name(), "--seed", &args.seed.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .args(["--probes", if probes { "1" } else { "0" }]);
    if let Some(s) = args.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {} child: {e}", kind.name()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let doc = Json::parse(last).map_err(|_| {
        format!(
            "{} exited with {} and no result line:\n{stdout}",
            kind.name(),
            out.status
        )
    })?;
    let field = |k: &str| doc.get(k).and_then(Json::as_u64);
    let metrics = match doc.get("metrics") {
        Some(Json::Obj(pairs)) => pairs
            .iter()
            .map(|(k, v)| (k.clone(), v.get("value").and_then(Json::as_f64)))
            .collect(),
        _ => return Err(format!("{}: result line has no metrics", kind.name())),
    };
    let notes = stdout
        .lines()
        .filter(|l| l.starts_with("# ") && !l.starts_with("# workload "))
        .map(|l| format!("# {}: {}", kind.name(), &l[2..]))
        .collect();
    Ok(ChildResult {
        kind,
        notes,
        correct: doc.get("correct") == Some(&Json::Bool(true)) && out.status.success(),
        attempted: field("attempted").unwrap_or(0),
        failed: field("failed").unwrap_or(0),
        metrics,
    })
}

fn run_set(args: &Args) -> Result<Vec<ChildResult>, String> {
    Kind::ALL
        .iter()
        .enumerate()
        .map(|(i, &kind)| {
            eprintln!("[{}/{}] {}", i + 1, Kind::ALL.len(), kind.name());
            // The layer probes measure layers, not workloads: once is enough.
            spawn_child(kind, args, i == 0)
        })
        .collect()
}

fn cell(v: Option<f64>) -> String {
    match v {
        Some(v) if v != 0.0 && v.abs() < 0.01 => format!("{v:.3e}"),
        Some(v) if v.abs() >= 1e7 => format!("{v:.4e}"),
        Some(v) => format!("{v:.4}"),
        None => "null".to_owned(),
    }
}

/// Metrics as rows, workloads as columns.
fn print_table(declared: &[Metric], results: &[ChildResult]) {
    print!("{:<38}{:<13}", "metric", "unit");
    for r in results {
        print!("{:>19}", r.kind.name());
    }
    println!();
    for m in declared {
        let row: Vec<_> = results
            .iter()
            .map(|r| r.metrics.iter().find(|(n, _)| *n == m.name))
            .collect();
        if row.iter().all(Option::is_none) {
            continue;
        }
        print!("{:<38}{:<13}", m.name, m.unit);
        for v in row {
            print!("{:>19}", v.map_or("-".to_owned(), |(_, v)| cell(*v)));
        }
        println!();
    }
    print!("{:<38}{:<13}", "failed/attempted", "count");
    for r in results {
        print!("{:>19}", format!("{}/{}", r.failed, r.attempted));
    }
    println!();
    for note in results.iter().flat_map(|r| &r.notes) {
        println!("{note}");
    }
}

/// Concatenates the children's trace files into `out/trace.json`.
fn merge_traces() -> Result<(), String> {
    let dir = out_dir();
    let mut docs = Vec::new();
    for kind in Kind::ALL {
        let path = dir.join(format!("trace.{}.json", kind.name()));
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        docs.push(text.trim_end().to_owned());
    }
    let path = dir.join("trace.json");
    std::fs::write(&path, format!("{{\"workloads\":[{}]}}\n", docs.join(",")))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# merged trace written to {}", path.display());
    Ok(())
}

/// Two full untraced sets back to back; fails when any end-to-end
/// metric's two values differ by more than its own bound.
fn repeat_check(args: &Args, spec: &Spec) -> Result<bool, String> {
    let first = run_set(args)?;
    let second = run_set(args)?;
    let mut ok = first.iter().chain(&second).all(|r| r.correct);
    println!(
        "{:<20}{:<26}{:>14}{:>14}{:>9}{:>8}",
        "workload", "metric", "first", "second", "gap", "bound"
    );
    for (a, b) in first.iter().zip(&second) {
        for m in &spec.end_to_end {
            let get = |r: &ChildResult| {
                r.metrics
                    .iter()
                    .find(|(n, _)| *n == m.name)
                    .and_then(|(_, v)| *v)
            };
            let (Some(x), Some(y)) = (get(a), get(b)) else {
                return Err(format!("{} did not report {}", a.kind.name(), m.name));
            };
            let bound = m.bound.unwrap_or(0.0);
            // Either set may be the worse one.
            let gap = worsening(x, y, m.higher_is_better).max(worsening(y, x, m.higher_is_better));
            let agree = gap <= bound;
            let verdict = if agree { "" } else { "  FAIL" };
            ok &= agree;
            println!(
                "{:<20}{:<26}{:>14}{:>14}{:>8.2}%{:>7.0}%{verdict}",
                a.kind.name(),
                m.name,
                cell(Some(x)),
                cell(Some(y)),
                gap * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(ok)
}

fn orchestrate(args: &Args, spec: &Spec) -> Result<bool, String> {
    if args.repeat_check {
        if args.trace {
            return Err("--repeat-check compares untraced runs; drop --trace".to_owned());
        }
        return repeat_check(args, spec);
    }
    let started = Instant::now();
    let results = run_set(args)?;
    let declared = if args.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    println!(
        "# {}",
        context(args, args.seconds.unwrap_or(spec.run_seconds as f64)).to_string_compact()
    );
    print_table(declared, &results);
    if args.trace {
        merge_traces()?;
    }
    println!("# {:.1} s in all", started.elapsed().as_secs_f64());
    Ok(results.iter().all(|r| r.correct))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|args| {
        let spec = Spec::embedded()?;
        match args.workload {
            Some(kind) => run_child(kind, &args, &spec),
            None => orchestrate(&args, &spec),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("benchmark: an output was wrong or a metric moved; see above");
            ExitCode::FAILURE
        }
        Err(msg) => {
            eprintln!("benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_argument_form_parses() {
        let a = args(&[
            "--workload",
            "serve_paced",
            "--seed",
            "11",
            "--seconds",
            "8",
            "--trace",
            "0",
        ])
        .expect("parses");
        assert_eq!(a.workload, Some(Kind::ServePaced));
        assert_eq!((a.seed, a.seconds, a.trace), (11, Some(8.0), false));
        assert!(
            args(&["--trace", "1", "--workload", "all"])
                .expect("parses")
                .trace
        );
    }

    #[test]
    fn a_bare_trace_flag_means_on() {
        let a = args(&["--trace", "--smoke"]).expect("parses");
        assert!(a.trace && a.smoke && a.workload.is_none());
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
    }
}
