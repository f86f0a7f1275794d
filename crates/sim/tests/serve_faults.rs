//! Fault injection for the serve loop (DESIGN.md §13): the server must
//! *degrade*, never deadlock — a mid-chunk disconnect ends the run
//! cleanly with partial progress, a CRC-corrupt frame is rejected
//! per-frame while the stream stays aligned, and sustained overload
//! sheds whole batches against the bounded ingress instead of growing
//! without limit. Every scenario runs under a watchdog (the
//! `lock_interleave.rs` idiom): a hang shows up as a timeout here, not
//! a stuck CI job.

use std::sync::mpsc;
use std::time::Duration;

use cce_core::SuperblockId;
use cce_dbt::SuperblockInfo;
use cce_dbt::TraceEvent;
use cce_sim::serve::{tenant_of, wire_id, ServePlan, ServeReport};
use cce_sim::{run_serve, ServeConfig, ServeFaults};
use cce_tinyvm::program::Pc;

/// Generous bound for a millisecond-scale serve run; only a lost lock
/// or an unbounded queue ever gets near it.
const WATCHDOG: Duration = Duration::from_secs(120);

fn registry(n: u64) -> Vec<SuperblockInfo> {
    (0..n)
        .map(|i| SuperblockInfo {
            id: SuperblockId(i * 13 + 5),
            head_pc: Pc(i * 64),
            size: 100 + (i as u32 % 7) * 30,
            guest_blocks: 3,
            exits: 2,
        })
        .collect()
}

/// Unpaced baseline: ~2000 requests of 16 events each.
fn base_cfg() -> ServeConfig {
    ServeConfig {
        tenants: 3,
        threads: 2,
        rps: 500_000.0,
        duration_secs: 0.004,
        batch_events: 16,
        seed: 31,
        ..ServeConfig::default()
    }
}

/// Runs the scenario on its own thread and panics if it outlives the
/// watchdog instead of letting CI hang.
fn serve_with_watchdog(cfg: ServeConfig) -> (ServePlan, ServeReport) {
    serve_edited_with_watchdog(cfg, |_| {})
}

/// [`serve_with_watchdog`] on a plan that `edit` rewrote by hand first.
#[expect(
    clippy::disallowed_methods,
    reason = "a watchdog timeout only turns a hang into a failure"
)]
fn serve_edited_with_watchdog(
    cfg: ServeConfig,
    edit: fn(&mut ServePlan),
) -> (ServePlan, ServeReport) {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let mut plan = ServePlan::build(&registry(24), "faults", &cfg).unwrap();
        edit(&mut plan);
        let report = run_serve(&plan, &cfg).unwrap();
        // A hung serve loop means nobody is listening; ignore that.
        let _ = tx.send((plan, report));
    });
    rx.recv_timeout(WATCHDOG)
        .expect("serve run exceeded the watchdog: lost lock or unbounded queue")
}

#[test]
fn mid_chunk_disconnect_ends_cleanly_with_partial_progress() {
    let cfg = ServeConfig {
        faults: ServeFaults {
            // Past the header, far short of the ~100+ KiB of frames.
            disconnect_after_bytes: Some(4096),
            ..ServeFaults::default()
        },
        ..base_cfg()
    };
    let (plan, report) = serve_with_watchdog(cfg);
    assert!(report.disconnected, "the cut stream must be reported");
    assert!(
        report.applied_events > 0,
        "frames before the cut must have been served"
    );
    assert!(
        report.applied_events < plan.event_count,
        "the disconnect cannot have delivered the whole plan"
    );
    // Everything admitted was drained before shutdown.
    assert_eq!(report.applied_events, report.delivered_events);
}

#[test]
fn crc_corrupt_frames_are_rejected_without_losing_the_stream() {
    let every = 3u64;
    let cfg = ServeConfig {
        faults: ServeFaults {
            corrupt_every: Some(every),
            ..ServeFaults::default()
        },
        ..base_cfg()
    };
    let (plan, report) = serve_with_watchdog(cfg);
    let corrupted = plan.requests.len() as u64 / every;
    assert!(corrupted > 0, "the plan is too small to corrupt anything");
    assert_eq!(report.rejected_frames, corrupted);
    assert_eq!(report.foreign_frames, 0, "line noise is not a foreign id");
    assert!(!report.disconnected, "rejection must not kill the stream");
    assert_eq!(report.dropped_events, 0);
    // Every healthy frame was applied; every corrupt one was skipped
    // whole (the plan makes all frames exactly `batch_events` long).
    assert_eq!(
        report.applied_events,
        plan.event_count - corrupted * cfg.batch_events as u64
    );
}

#[test]
fn sustained_overload_sheds_batches_against_the_bounded_ingress() {
    let cfg = ServeConfig {
        threads: 1,
        // Each batch holds the worker ~1ms while ~2000 requests arrive
        // unpaced: the ingress saturates almost immediately.
        queue_events: 64,
        faults: ServeFaults {
            apply_delay_micros: 1000,
            ..ServeFaults::default()
        },
        duration_secs: 0.001,
        ..base_cfg()
    };
    let (plan, report) = serve_with_watchdog(cfg);
    assert!(
        report.dropped_events > 0,
        "overload must shed, not queue without bound"
    );
    assert!(
        report.queue_high_water <= cfg.queue_events as u64,
        "high water {} broke the ingress budget {}",
        report.queue_high_water,
        cfg.queue_events
    );
    // Shedding is whole-batch and fully accounted.
    assert_eq!(
        report.dropped_events,
        report.dropped_requests * cfg.batch_events as u64
    );
    assert_eq!(
        report.delivered_events + report.dropped_events,
        plan.event_count,
        "every offered event is either delivered or counted as shed"
    );
    // The queue drains completely before shutdown: bounded memory and
    // no abandoned work.
    assert_eq!(report.applied_events, report.delivered_events);
}

/// Requests `mixed_tenant_frames_are_rejected_whole` spoils, each between
/// clean ones: an id of another tenant, a chain source of another
/// tenant, and a local index past the 24-entry source registry.
const SPOILED: [usize; 3] = [10, 40, 70];

fn spoil(plan: &mut ServePlan) {
    let tenants = plan.per_tenant.len();
    for (k, &i) in SPOILED.iter().enumerate() {
        let req = &mut plan.requests[i];
        let other = (req.tenant + 1) % tenants;
        let TraceEvent::Access { id, direct_from } = &mut req.events[3];
        match k {
            0 => *id = wire_id(other, 5),
            1 => *direct_from = Some(wire_id(other, 0)),
            _ => *id = wire_id(req.tenant, 24),
        }
    }
}

#[test]
fn mixed_tenant_frames_are_rejected_whole() {
    let cfg = ServeConfig {
        threads: 1,
        record_events: true,
        ..base_cfg()
    };
    let (plan, report) = serve_edited_with_watchdog(cfg, spoil);
    assert_eq!(report.rejected_frames, SPOILED.len() as u64);
    assert_eq!(
        report.foreign_frames, 3,
        "every spoiled frame names a foreign block"
    );
    assert!(!report.disconnected, "rejection must not kill the stream");
    assert_eq!(report.dropped_events, 0);
    assert_eq!(
        report.applied_events,
        plan.event_count - (SPOILED.len() * cfg.batch_events) as u64
    );
    // Each tenant applied exactly its clean requests, in order, and
    // nothing of another tenant: later frames still apply.
    let mut expect = vec![Vec::new(); cfg.tenants];
    for (i, req) in plan.requests.iter().enumerate() {
        if !SPOILED.contains(&i) {
            expect[req.tenant].extend_from_slice(&req.events);
        }
    }
    let log = report.applied_log.expect("record_events was set");
    for (t, applied) in log.iter().enumerate() {
        assert_eq!(applied, &expect[t], "tenant {t}");
        assert!(applied
            .iter()
            .all(|&TraceEvent::Access { id, direct_from }| {
                tenant_of(id) == t && direct_from.is_none_or(|f| tenant_of(f) == t)
            }));
    }
}
