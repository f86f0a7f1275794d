//! Serve ↔ offline conformance (DESIGN.md §13): a seeded serve run on
//! one worker thread must apply, per tenant, the byte-identical event
//! stream the offline replay of the same plan applies — and end with
//! identical per-tenant cache statistics at *any* thread count, because
//! each tenant is owned by exactly one worker and frames arrive in
//! stream order.
//!
//! Every case runs at 1, 2 and 4 threads.

use cce_dbt::stream::encode_chunk_payload;
use cce_sim::serve::{offline_baseline, ServePlan};
use cce_sim::{run_serve, ServeConfig};
use cce_workloads::catalog;

/// Unloaded, seed-pinned config: the rate is far beyond the plan size,
/// so pacing never sleeps, and the plan stays well under the ingress
/// budget, so nothing is ever shed.
fn cfg(threads: usize) -> ServeConfig {
    ServeConfig {
        tenants: 4,
        threads,
        rps: 500_000.0,
        duration_secs: 0.002, // ~1000 requests of 16 events: << queue_events
        batch_events: 16,
        skew: 0.9,
        seed: 23,
        record_events: true,
        ..ServeConfig::default()
    }
}

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

fn plan(cfg: &ServeConfig) -> ServePlan {
    let trace = catalog::by_name("gzip").unwrap().trace(0.05, 23);
    ServePlan::build(&trace.superblocks, &trace.name, cfg).unwrap()
}

#[test]
fn single_threaded_serve_is_byte_identical_to_offline_replay() {
    let cfg = cfg(1);
    let plan = plan(&cfg);
    let report = run_serve(&plan, &cfg).unwrap();
    assert_eq!(report.dropped_events, 0, "unloaded run shed work");
    assert_eq!(report.rejected_frames, 0);
    assert!(!report.disconnected);

    let offline = offline_baseline(&plan, &cfg).unwrap();
    let log = report.applied_log.as_ref().expect("record_events was set");
    for (t, offline_stats) in offline.iter().enumerate() {
        assert_eq!(
            encode_chunk_payload(&log[t]),
            encode_chunk_payload(&plan.per_tenant[t]),
            "tenant {t}: applied events differ from the offline stream"
        );
        assert_eq!(
            &report.per_tenant[t].stats, offline_stats,
            "tenant {t}: cache statistics diverged from offline replay"
        );
    }
}

#[test]
fn serve_stats_match_offline_at_every_thread_count() {
    for threads in THREAD_COUNTS {
        let cfg = cfg(threads);
        let plan = plan(&cfg);
        let report = run_serve(&plan, &cfg).unwrap();
        assert_eq!(report.dropped_events, 0, "threads={threads}");
        assert_eq!(report.applied_events, plan.event_count, "threads={threads}");
        let offline = offline_baseline(&plan, &cfg).unwrap();
        for (t, offline_stats) in offline.iter().enumerate() {
            assert_eq!(
                &report.per_tenant[t].stats, offline_stats,
                "threads={threads} tenant {t}"
            );
        }
    }
}

#[test]
fn seeded_serve_runs_are_reproducible() {
    let cfg = cfg(1);
    let plan_a = plan(&cfg);
    let plan_b = plan(&cfg);
    assert_eq!(plan_a, plan_b, "the traffic plan must be seed-pure");
    let a = run_serve(&plan_a, &cfg).unwrap();
    let b = run_serve(&plan_b, &cfg).unwrap();
    assert_eq!(a.applied_log, b.applied_log);
    for (x, y) in a.per_tenant.iter().zip(&b.per_tenant) {
        assert_eq!(x.stats, y.stats);
    }
}
