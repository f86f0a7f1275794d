//! Multi-tenant concurrent replay over a [`ConcurrentSession`].
//!
//! [`simulate_concurrent`] drives N per-tenant traces through one shared
//! concurrent cache on T worker threads: thread `j` owns tenants `j`,
//! `j+T`, … and round-robins bounded event slices across its tenants, so
//! with several tenants per thread their lock acquisitions interleave
//! the way independent guest programs' would. Each tenant's replay runs
//! the exact [`SimDriver`] core every single-threaded `simulate_*` entry
//! point uses, against that tenant's [`cce_core::TenantSession`] handle:
//! without an arbiter the driver takes the tenant lock once per slice
//! ([`CacheSession::hold`]), with one it takes it once per event, so a
//! review lands after the same access whatever the slice size.
//!
//! **Determinism:** without an arbiter, every tenant's [`SimResult`] is
//! byte-identical to its solo single-threaded run at the same capacity
//! and shard count, for any thread count — per-tenant lanes make tenant
//! state independent of global interleaving (see DESIGN.md §12; enforced
//! by `tests/concurrent_conformance.rs`). With an arbiter, capacity
//! moves depend on the global access interleaving, so runs are
//! reproducible only at `threads = 1`.

use crate::simulator::{SimConfig, SimDriver, SimError, SimResult};
use cce_core::{
    ArbiterConfig, CacheSession, ConcurrentSession, TenantConfig, TenantId, TenantSession,
};
use cce_dbt::{SharedTrace, TraceEvent};
use std::sync::Arc;

/// Configuration of one concurrent multi-tenant replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConcurrentSimConfig {
    /// Per-tenant cache cell: granularity, **per-tenant** capacity, cost
    /// models. Each tenant gets its own full `capacity` bytes, split
    /// over the shards exactly like a solo sharded cache.
    pub sim: SimConfig,
    /// Shards of the shared cache.
    pub shards: u32,
    /// Worker threads serving the tenants.
    pub threads: usize,
    /// Events per round-robin turn within a worker thread.
    pub slice: usize,
    /// Enable Memshare-style capacity arbitration between tenants.
    pub arbiter: Option<ArbiterConfig>,
}

impl Default for ConcurrentSimConfig {
    fn default() -> ConcurrentSimConfig {
        ConcurrentSimConfig {
            sim: SimConfig::default(),
            shards: 4,
            threads: 1,
            slice: 256,
            arbiter: None,
        }
    }
}

/// Replays one trace per tenant through a freshly built
/// [`ConcurrentSession`] (every tenant at `cfg.sim.granularity` and
/// `cfg.sim.capacity`). Returns one [`SimResult`] per tenant, in tenant
/// order.
///
/// # Errors
///
/// Returns [`SimError::EmptyTrace`] when `traces` is empty or any trace
/// has no events, [`SimError::Cache`] for invalid geometry, and the
/// per-tenant replay errors of a solo [`crate::replay::Replay`] run.
pub fn simulate_concurrent(
    traces: &[SharedTrace],
    cfg: &ConcurrentSimConfig,
) -> Result<Vec<SimResult>, SimError> {
    if traces.is_empty() {
        return Err(SimError::EmptyTrace);
    }
    let tenants = traces
        .iter()
        .map(|_| TenantConfig::with_granularity(cfg.sim.granularity, cfg.sim.capacity))
        .collect();
    let session = ConcurrentSession::new(tenants, cfg.shards, cfg.arbiter)?;
    simulate_concurrent_with(&session, traces, cfg)
}

/// [`simulate_concurrent`] over a pre-built session — the entry point
/// for heterogeneous tenants (custom organizations or budgets via
/// [`TenantConfig::new`]). `session.tenant_count()` must equal
/// `traces.len()`; trace `t` drives tenant `t`.
///
/// # Errors
///
/// Same conditions as [`simulate_concurrent`].
pub fn simulate_concurrent_with(
    session: &ConcurrentSession,
    traces: &[SharedTrace],
    cfg: &ConcurrentSimConfig,
) -> Result<Vec<SimResult>, SimError> {
    if traces.is_empty() || session.tenant_count() != traces.len() {
        return Err(SimError::EmptyTrace);
    }
    let mut drivers = Vec::with_capacity(traces.len());
    for (t, trace) in traces.iter().enumerate() {
        let tenant = session.tenant(TenantId(t as u32));
        let label = tenant.granularity().label();
        drivers.push((
            t,
            SimDriver::new(
                &trace.name,
                &trace.superblocks,
                trace.event_count,
                tenant,
                label,
                &cfg.sim,
            )?,
            Cursor::new(&trace.chunks),
        ));
    }
    let threads = cfg.threads.max(1).min(drivers.len());
    let slice = cfg.slice.max(1);
    let mut groups: Vec<Vec<TenantRun<'_>>> = (0..threads).map(|_| Vec::new()).collect();
    for run in drivers {
        groups[run.0 % threads].push(run);
    }
    let mut results: Vec<Option<Result<SimResult, SimError>>> =
        (0..traces.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = groups
            .into_iter()
            .map(|group| scope.spawn(move || run_group(group, slice)))
            .collect();
        for handle in handles {
            #[expect(
                clippy::expect_used,
                reason = "join fails only when the worker panicked; re-raising is the right propagation"
            )]
            let group = handle.join().expect("concurrent replay worker panicked");
            for (t, result) in group {
                results[t] = Some(result);
            }
        }
    });
    #[expect(
        clippy::expect_used,
        reason = "tenant t goes to group t % threads, so every slot is filled by construction"
    )]
    let results = results
        .into_iter()
        .map(|r| r.expect("every tenant was assigned to a worker"))
        .collect();
    results
}

type TenantRun<'a> = (usize, SimDriver<TenantSession>, Cursor<'a>);

/// Round-robins bounded slices across one worker's tenants until every
/// stream is drained, then finishes each driver.
fn run_group(group: Vec<TenantRun<'_>>, slice: usize) -> Vec<(usize, Result<SimResult, SimError>)> {
    let mut done = Vec::with_capacity(group.len());
    let mut live = group;
    while !live.is_empty() {
        let mut still = Vec::with_capacity(live.len());
        for (t, mut driver, mut cursor) in live {
            match cursor.next_slice(slice) {
                Some(events) => match driver.feed(events) {
                    Ok(()) => still.push((t, driver, cursor)),
                    Err(e) => done.push((t, Err(e))),
                },
                None => done.push((t, driver.finish())),
            }
        }
        live = still;
    }
    done
}

/// A read cursor over one tenant's chunked event stream.
struct Cursor<'a> {
    chunks: &'a [Arc<[TraceEvent]>],
    chunk: usize,
    offset: usize,
}

impl<'a> Cursor<'a> {
    fn new(chunks: &'a [Arc<[TraceEvent]>]) -> Cursor<'a> {
        Cursor {
            chunks,
            chunk: 0,
            offset: 0,
        }
    }

    /// The next up-to-`max`-event slice, or `None` when drained. Never
    /// crosses a chunk boundary (slices stay borrowed, no copying).
    fn next_slice(&mut self, max: usize) -> Option<&'a [TraceEvent]> {
        while self.chunk < self.chunks.len() {
            let chunk = &self.chunks[self.chunk];
            if self.offset >= chunk.len() {
                self.chunk += 1;
                self.offset = 0;
                continue;
            }
            let end = (self.offset + max).min(chunk.len());
            let slice = &chunk[self.offset..end];
            self.offset = end;
            return Some(slice);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::{simulate_source_session, EventSource};
    use cce_core::{Granularity, ShardedCache};
    use cce_workloads::catalog;

    fn traces(n: usize) -> Vec<SharedTrace> {
        let names = ["gzip", "crafty", "gcc", "perlbmk"];
        (0..n)
            .map(|i| {
                let log = catalog::by_name(names[i % names.len()])
                    .unwrap()
                    .trace(0.02, 1 + i as u64);
                SharedTrace::from_log(&log)
            })
            .collect()
    }

    fn solo(trace: &SharedTrace, cfg: &ConcurrentSimConfig) -> SimResult {
        let cache =
            ShardedCache::with_granularity(cfg.sim.granularity, cfg.sim.capacity, cfg.shards)
                .unwrap();
        simulate_source_session(trace, cache, cfg.sim.granularity.label(), &cfg.sim).unwrap()
    }

    #[test]
    fn each_tenant_matches_its_solo_run_at_any_thread_count() {
        let ts = traces(3);
        for threads in [1usize, 2, 4] {
            let cfg = ConcurrentSimConfig {
                sim: SimConfig {
                    granularity: Granularity::units(4),
                    capacity: 16 * 1024,
                    ..SimConfig::default()
                },
                shards: 2,
                threads,
                slice: 64,
                ..ConcurrentSimConfig::default()
            };
            let results = simulate_concurrent(&ts, &cfg).unwrap();
            assert_eq!(results.len(), 3);
            for (t, trace) in ts.iter().enumerate() {
                assert_eq!(
                    results[t],
                    solo(trace, &cfg),
                    "tenant {t} diverged at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn slicing_does_not_change_results() {
        let ts = traces(2);
        let base = ConcurrentSimConfig {
            sim: SimConfig {
                capacity: 8 * 1024,
                ..SimConfig::default()
            },
            shards: 2,
            slice: 1,
            ..ConcurrentSimConfig::default()
        };
        let fine = simulate_concurrent(&ts, &base).unwrap();
        let coarse = simulate_concurrent(
            &ts,
            &ConcurrentSimConfig {
                slice: 100_000,
                ..base
            },
        )
        .unwrap();
        assert_eq!(fine, coarse, "slice size must be invisible");
    }

    #[test]
    fn slicing_does_not_change_arbiter_results() {
        // An arbiter session is fed event by event, so a review lands
        // after the same global access whatever the slice size; holding
        // the tenant lock for a slice would skip or move the reviews.
        // Between two long tenants on one thread the slice size sets the
        // interleaving the arbiter sees, so tenant 0 replays one event
        // and tenant 1's first chunk is one event long: the global
        // access order, and the point where tenant 0 finishes, are then
        // the same at every slice size.
        let mut ts = traces(2);
        let head = |t: &SharedTrace| -> Arc<[TraceEvent]> { Arc::from(&t.chunks[0][..1]) };
        let tail: Arc<[TraceEvent]> = Arc::from(&ts[1].chunks[0][1..]);
        ts[0].chunks = vec![head(&ts[0])];
        ts[0].event_count = 1;
        ts[1].chunks = vec![head(&ts[1]), tail];
        let cfg = ConcurrentSimConfig {
            sim: SimConfig {
                capacity: 4 * 1024,
                ..SimConfig::default()
            },
            shards: 2,
            threads: 1,
            slice: 1,
            arbiter: Some(ArbiterConfig {
                review_period: 512,
                ..ArbiterConfig::default()
            }),
        };
        let run = |slice: usize| {
            let tenants = ts
                .iter()
                .map(|_| TenantConfig::with_granularity(cfg.sim.granularity, cfg.sim.capacity))
                .collect();
            let session = ConcurrentSession::new(tenants, cfg.shards, cfg.arbiter).unwrap();
            let results =
                simulate_concurrent_with(&session, &ts, &ConcurrentSimConfig { slice, ..cfg })
                    .unwrap();
            (results, session.decisions())
        };
        let (fine, fine_decisions) = run(1);
        let (coarse, coarse_decisions) = run(100_000);
        assert!(!fine_decisions.is_empty(), "the arbiter re-partitioned");
        assert_eq!(
            fine_decisions, coarse_decisions,
            "slice size moved a review"
        );
        assert_eq!(fine, coarse, "slice size must be invisible");
    }

    #[test]
    fn arbiter_runs_are_reproducible_single_threaded() {
        let ts = traces(2);
        let cfg = ConcurrentSimConfig {
            sim: SimConfig {
                capacity: 4 * 1024,
                ..SimConfig::default()
            },
            shards: 2,
            threads: 1,
            arbiter: Some(ArbiterConfig {
                review_period: 512,
                ..ArbiterConfig::default()
            }),
            ..ConcurrentSimConfig::default()
        };
        let a = simulate_concurrent(&ts, &cfg).unwrap();
        let b = simulate_concurrent(&ts, &cfg).unwrap();
        assert_eq!(a, b, "single-threaded arbiter replay must be pure");
    }

    #[test]
    fn empty_input_is_an_error() {
        assert_eq!(
            simulate_concurrent(&[], &ConcurrentSimConfig::default()).unwrap_err(),
            SimError::EmptyTrace
        );
    }

    #[test]
    fn shared_trace_event_source_agrees_with_cursor() {
        // The cursor must deliver exactly the events the EventSource
        // iterator would, in order.
        let ts = traces(1);
        let trace = &ts[0];
        let mut cursor = Cursor::new(&trace.chunks);
        let mut from_cursor = Vec::new();
        while let Some(s) = cursor.next_slice(97) {
            from_cursor.extend_from_slice(s);
        }
        let from_source: Vec<TraceEvent> = trace
            .event_chunks()
            .flat_map(<[TraceEvent]>::to_vec)
            .collect();
        assert_eq!(from_cursor, from_source);
    }
}
