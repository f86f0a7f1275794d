//! The `serve` subcommand: the traffic-driven serving benchmark.
//!
//! Builds an open-loop traffic plan from a catalog workload's superblock
//! registry ([`cce_sim::serve::ServePlan::build`]), streams it through
//! the framed byte transport into the concurrent-session server loop
//! ([`cce_sim::run_serve`]), and reports sustained throughput, service
//! latency percentiles, queue high-water and per-tenant cache outcomes.
//! It is the human-facing view; measured numbers and the zero-shed gate
//! come from `benchmark/`'s `serve_paced` and `serve_overload`.

use crate::Options;
use cce_sim::serve::ServePlan;
use cce_sim::{run_serve, ServeConfig, ServeReport};
use cce_workloads::catalog;

/// Builds the [`ServeConfig`] for the CLI options (defaults documented
/// in `usage()`).
fn serve_config(opts: &Options) -> ServeConfig {
    let mut cfg = ServeConfig {
        seed: opts.seed,
        ..ServeConfig::default()
    };
    if let Some(t) = opts.tenants {
        cfg.tenants = t as usize;
    }
    if let Some(t) = opts.threads {
        cfg.threads = t;
    }
    if let Some(r) = opts.rps {
        cfg.rps = r;
    }
    if let Some(d) = opts.duration {
        cfg.duration_secs = d;
    }
    if let Some(q) = opts.queue {
        cfg.queue_events = q;
    }
    if let Some(s) = opts.skew {
        cfg.skew = s;
    }
    cfg
}

fn render(report: &ServeReport) -> String {
    use cce_sim::report::TextTable;
    let ms = |n: u64| format!("{:.3}", n as f64 / 1e6);
    let mut out = format!(
        "Serve: {} — {} tenants on {} thread(s), {:.1} s wall\n\
         offered {} requests ({} events); delivered {}, applied {}, \
         dropped {} ({} requests), rejected {} frame(s){}\n\
         throughput {:.0} events/s, queue high-water {} events\n\
         latency (ms): p50 {}  p95 {}  p99 {}  max {}  ({} samples)\n\n",
        report.name,
        report.tenants,
        report.threads,
        report.wall_secs,
        report.offered_requests,
        report.offered_events,
        report.delivered_events,
        report.applied_events,
        report.dropped_events,
        report.dropped_requests,
        report.rejected_frames,
        if report.disconnected {
            ", DISCONNECTED"
        } else {
            ""
        },
        report.throughput_events_per_sec,
        report.queue_high_water,
        ms(report.latency.p50_nanos),
        ms(report.latency.p95_nanos),
        ms(report.latency.p99_nanos),
        ms(report.latency.max_nanos),
        report.latency.samples,
    );
    let mut t = TextTable::new(
        "per-tenant outcomes",
        ["tenant", "applied", "accesses", "miss rate", "evictions"],
    );
    for tn in &report.per_tenant {
        t.row([
            tn.tenant.to_string(),
            tn.applied_events.to_string(),
            tn.stats.accesses.to_string(),
            format!("{:.2}%", tn.stats.miss_rate() * 100.0),
            tn.stats.eviction_invocations.to_string(),
        ]);
    }
    out.push_str(&t.to_string());
    out
}

/// Builds the plan for `opts` and runs it through the server loop.
fn run(opts: &Options) -> Result<ServeReport, String> {
    let bench = opts.bench.as_deref().unwrap_or("gzip");
    let trace = catalog::by_name(bench)
        .ok_or_else(|| format!("unknown benchmark: {bench}"))?
        .trace(opts.scale, opts.seed);
    let cfg = serve_config(opts);
    let plan = ServePlan::build(&trace.superblocks, &trace.name, &cfg)
        .map_err(|e| format!("plan: {e}"))?;
    if opts.verbose {
        eprintln!(
            "serving {} requests ({} events) to {} tenant(s)...",
            plan.requests.len(),
            plan.event_count,
            cfg.tenants
        );
    }
    run_serve(&plan, &cfg).map_err(|e| format!("serve: {e}"))
}

/// `serve --rps R --duration S --tenants N --threads T [--bench NAME]
/// [--queue E] [--skew Z] [--seed N]`
pub fn serve(opts: &Options) -> Result<String, String> {
    run(opts).map(|report| render(&report))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts() -> Options {
        Options {
            scale: 0.05,
            seed: 11,
            bench: Some("gzip".to_owned()),
            tenants: Some(3),
            threads: Some(2),
            rps: Some(200_000.0),
            duration: Some(0.005),
            verbose: false,
            ..Options::default()
        }
    }

    #[test]
    fn serve_command_renders_and_applies_without_drops() {
        let report = run(&quick_opts()).unwrap();
        assert!(report.applied_events > 0);
        assert_eq!((report.dropped_events, report.dropped_requests), (0, 0));
        let out = render(&report);
        assert!(out.contains("per-tenant outcomes"), "{out}");
    }

    #[test]
    fn unknown_benchmark_is_an_error() {
        let opts = Options {
            bench: Some("nope".to_owned()),
            ..quick_opts()
        };
        assert!(serve(&opts).is_err());
    }
}
