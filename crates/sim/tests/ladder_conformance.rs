//! Ladder ↔ naive conformance (DESIGN.md §14): the single-pass
//! configuration-ladder engine must be **byte-identical** to the
//! per-cell oracle — same `SimResult`s (stats, Eq. 2–4 charges, census
//! counts) and the same settled per-cell event stream — across the
//! paper's granularity spectrum, a capacity ladder and every pressure
//! level, on catalog workloads and on randomized traces.
//!
//! Sharded cells are ladder lanes too: the sharded matrices below are
//! the ladder-vs-naive gate for `ShardedCache` geometry.
//!
//! Every matrix case runs at 1, 2 and 4 workers. With fewer traces than
//! workers the sweep deals each trace's rungs over several ladder
//! passes, so the one-trace cases also check that a split grid equals
//! the whole one.

use cce_core::{CacheEvent, CodeCache, Granularity};
use cce_dbt::{SuperblockInfo, TraceLog};
use cce_sim::ladder::{simulate_ladder_observed, simulate_ladder_source, LadderCell};
use cce_sim::{Engine, Replay, SimConfig, SimError, SimResult};
use cce_tinyvm::program::Pc;
use cce_workloads::catalog;
use std::sync::{Arc, Mutex};

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

/// The paper's granularity axis at conformance scale: FLUSH, three
/// unit ladders and the fine-grained FIFO.
fn granularities() -> Vec<Granularity> {
    vec![
        Granularity::Flush,
        Granularity::units(2),
        Granularity::units(8),
        Granularity::units(64),
        Granularity::Superblock,
    ]
}

/// Explicit ladder rungs for the direct-API tests: the pressure ladder
/// with capacities pre-truncated to unit multiples, as the ladder
/// engine requires (the matrix path does this internally).
fn rungs_for(max_cache: u64) -> Vec<LadderCell> {
    let mut rungs = Vec::new();
    for granularity in granularities() {
        for pressure in [2u64, 6, 10] {
            let capacity = (max_cache / pressure).max(4096);
            let capacity = match granularity.unit_count() {
                Some(n) => (capacity / u64::from(n)) * u64::from(n),
                None => capacity,
            };
            rungs.push(LadderCell {
                granularity,
                capacity,
            });
        }
    }
    rungs
}

/// Runs one rung on the naive engine while recording its settled event
/// stream through the cache observer.
fn oracle_observed(
    trace: &TraceLog,
    cell: LadderCell,
    base: &SimConfig,
) -> (SimResult, Vec<CacheEvent>) {
    let log = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&log);
    let mut cache = CodeCache::with_granularity(cell.granularity, cell.capacity).unwrap();
    cache.set_observer(Box::new(move |ev: CacheEvent| {
        sink.lock().unwrap().push(ev);
    }));
    let result = Replay::new(trace)
        .config(base)
        .session(cache, cell.granularity.label())
        .run()
        .unwrap()
        .into_solo();
    let events = log.lock().unwrap().clone();
    (result, events)
}

#[test]
fn matrix_ladder_is_byte_identical_to_naive_across_the_catalog() {
    let traces: Vec<TraceLog> = catalog::all()
        .into_iter()
        .take(8)
        .map(|m| m.trace(0.04, 11))
        .collect();
    let gs = granularities();
    let ps = [2u32, 6, 10];
    let base = SimConfig::default();
    for jobs in THREAD_COUNTS {
        let naive = Replay::matrix(&traces)
            .granularities(&gs)
            .pressures(&ps)
            .config(&base)
            .jobs(jobs)
            .run()
            .unwrap();
        let ladder = Replay::matrix(&traces)
            .granularities(&gs)
            .pressures(&ps)
            .config(&base)
            .jobs(jobs)
            .engine(Engine::Ladder)
            .run()
            .unwrap();
        assert_eq!(naive.len(), traces.len() * gs.len() * ps.len());
        for (n, l) in naive.iter().zip(&ladder) {
            assert_eq!(n, l, "jobs={jobs} cell={:?}", n.cell);
        }
    }
}

/// Runs `traces` over the conformance grid at every shard count in
/// `shard_counts` on the naive engine once, then on the ladder at every
/// worker count, and requires the two to agree cell by cell.
fn assert_sharded_matrix_conforms(traces: &[TraceLog], shard_counts: &[u32], base: &SimConfig) {
    let gs = granularities();
    let ps = [2u32, 6, 10];
    let matrix = || {
        Replay::matrix(traces)
            .granularities(&gs)
            .pressures(&ps)
            .shard_counts(shard_counts)
            .config(base)
    };
    let naive = matrix().jobs(2).run().unwrap();
    assert_eq!(
        naive.len(),
        traces.len() * shard_counts.len() * gs.len() * ps.len()
    );
    for jobs in THREAD_COUNTS {
        let ladder = matrix().jobs(jobs).engine(Engine::Ladder).run().unwrap();
        assert_eq!(ladder.len(), naive.len());
        for (n, l) in naive.iter().zip(&ladder) {
            assert_eq!(n, l, "jobs={jobs} cell={:?}", n.cell);
        }
    }
}

/// Sharded rungs are ladder lanes: every shard count, including 3 (whose
/// capacity split leaves a remainder byte on the first shards), must
/// reproduce the per-cell `ShardedCache` replay exactly.
#[test]
fn sharded_matrix_ladder_is_byte_identical_to_naive() {
    let traces: Vec<TraceLog> = catalog::all()
        .into_iter()
        .take(8)
        .map(|m| m.trace(0.04, 11))
        .collect();
    assert_sharded_matrix_conforms(&traces, &[1, 2, 3, 8], &SimConfig::default());
}

#[test]
fn sharded_matrix_conforms_with_chaining_off() {
    let traces = vec![catalog::by_name("crafty").unwrap().trace(0.04, 5)];
    let base = SimConfig {
        chaining: false,
        ..SimConfig::default()
    };
    assert_sharded_matrix_conforms(&traces, &[1, 2, 3, 8], &base);
}

/// Three traces at up to eight workers: each trace's distinct rungs are
/// dealt over two passes at 4 jobs and three at 8, and no cell may
/// notice which rungs shared its pass.
#[test]
fn rungs_dealt_over_workers_conform() {
    let traces: Vec<TraceLog> = catalog::all()
        .into_iter()
        .skip(8)
        .take(3)
        .map(|m| m.trace(0.04, 13))
        .collect();
    let gs = granularities();
    let matrix = || {
        Replay::matrix(&traces)
            .granularities(&gs)
            .pressures(&[2, 6, 10])
            .shard_counts(&[1, 3])
    };
    let naive = matrix().jobs(2).run().unwrap();
    for jobs in [1, 4, 8] {
        let ladder = matrix().jobs(jobs).engine(Engine::Ladder).run().unwrap();
        assert_eq!(ladder, naive, "jobs={jobs}");
    }
}

#[test]
fn per_cell_event_streams_are_byte_identical() {
    let trace = catalog::by_name("gzip").unwrap().trace(0.05, 23);
    let base = SimConfig::default();
    let rungs = rungs_for(trace.max_cache_bytes());
    let mut streams: Vec<Vec<CacheEvent>> = vec![Vec::new(); rungs.len()];
    let mut observer = |cell: usize, event: CacheEvent| streams[cell].push(event);
    let results = simulate_ladder_observed(&trace, &rungs, &base, &mut observer).unwrap();
    for (i, rung) in rungs.iter().enumerate() {
        let (want_result, want_events) = oracle_observed(&trace, *rung, &base);
        assert_eq!(
            results[i],
            want_result,
            "{} @ {}",
            rung.granularity.label(),
            rung.capacity
        );
        assert_eq!(
            streams[i],
            want_events,
            "event stream diverged: {} @ {}",
            rung.granularity.label(),
            rung.capacity
        );
    }
}

#[test]
fn chaining_switch_conforms() {
    let trace = catalog::by_name("crafty").unwrap().trace(0.04, 5);
    let rungs = rungs_for(trace.max_cache_bytes());
    let base = SimConfig {
        chaining: false,
        ..SimConfig::default()
    };
    let results = simulate_ladder_source(&trace, &rungs, &base).unwrap();
    for (rung, got) in rungs.iter().zip(&results) {
        let (want, _) = oracle_observed(&trace, *rung, &base);
        assert_eq!(got, &want);
    }
}

#[test]
fn config_errors_surface_as_sim_errors_not_panics() {
    let trace = catalog::by_name("mcf").unwrap().trace(0.04, 2);
    let base = SimConfig::default();
    let empty: &[LadderCell] = &[];
    assert!(matches!(
        simulate_ladder_source(&trace, empty, &base).unwrap_err(),
        SimError::Config(_)
    ));
    let indivisible = [LadderCell {
        granularity: Granularity::units(8),
        capacity: 4001,
    }];
    assert!(matches!(
        simulate_ladder_source(&trace, &indivisible, &base).unwrap_err(),
        SimError::Config(_)
    ));
}

/// A hand-built trace whose second superblock cannot fit a FLUSH unit:
/// the oracle counts it uncacheable on every access and never records
/// first-touch; the ladder must reproduce that exactly (including the
/// cold-miss classification staying cold forever).
#[test]
fn uncacheable_superblocks_conform() {
    let mut log = TraceLog::new("oversized");
    for (i, size) in [600u32, 5000, 700].iter().enumerate() {
        log.record_superblock(SuperblockInfo {
            id: cce_core::SuperblockId(i as u64),
            head_pc: Pc(i as u64 * 0x40),
            size: *size,
            guest_blocks: 3,
            exits: 2,
        });
    }
    let mut prev = None;
    for lap in 0..40u64 {
        for i in 0..3u64 {
            let id = cce_core::SuperblockId(i);
            log.record_access(id, prev);
            prev = Some(id);
        }
        if lap % 7 == 0 {
            prev = None;
        }
    }
    let base = SimConfig::default();
    let rungs = [
        LadderCell {
            granularity: Granularity::Flush,
            capacity: 4096,
        },
        LadderCell {
            granularity: Granularity::units(2),
            capacity: 4096,
        },
        LadderCell {
            granularity: Granularity::Superblock,
            capacity: 4096,
        },
    ];
    let mut streams: Vec<Vec<CacheEvent>> = vec![Vec::new(); rungs.len()];
    let mut observer = |cell: usize, event: CacheEvent| streams[cell].push(event);
    let results = simulate_ladder_observed(&log, &rungs, &base, &mut observer).unwrap();
    for (i, rung) in rungs.iter().enumerate() {
        let (want_result, want_events) = oracle_observed(&log, *rung, &base);
        assert!(want_result.uncacheable > 0, "fixture lost its point");
        assert_eq!(results[i], want_result, "{}", rung.granularity.label());
        assert_eq!(streams[i], want_events, "{}", rung.granularity.label());
    }
}

/// Minimal multiplicative LCG (Park–Miller) — the repo carries no
/// property-testing dependency, so the random-trace sweep is hand
/// rolled and fully seed-pinned.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn random_trace(seed: u64) -> TraceLog {
    let mut rng = Lcg(seed.wrapping_mul(2654435761).wrapping_add(99991));
    let blocks = 12 + rng.below(29);
    let events = 400 + rng.below(1101);
    let mut log = TraceLog::new("random");
    for i in 0..blocks {
        log.record_superblock(SuperblockInfo {
            id: cce_core::SuperblockId(i),
            head_pc: Pc(i * 0x80),
            size: 16 + u32::try_from(rng.below(497)).unwrap(),
            guest_blocks: 1 + u32::try_from(rng.below(8)).unwrap(),
            exits: 1 + u32::try_from(rng.below(4)).unwrap(),
        });
    }
    let mut prev = None;
    for _ in 0..events {
        // Zipf-ish skew: half the accesses hit the first quarter of
        // the universe, so residency and eviction churn both happen.
        let id = if rng.below(2) == 0 {
            cce_core::SuperblockId(rng.below((blocks / 4).max(1)))
        } else {
            cce_core::SuperblockId(rng.below(blocks))
        };
        let direct = if rng.below(10) < 7 { prev } else { None };
        log.record_access(id, direct);
        prev = Some(id);
    }
    log
}

#[test]
fn random_traces_conform_property_style() {
    let base = SimConfig::default();
    for case in 0..24u64 {
        let log = random_trace(case);
        let footprint: u64 = log.superblocks.iter().map(|s| u64::from(s.size)).sum();
        let max_block = log.superblocks.iter().map(|s| s.size).max().unwrap_or(1);
        // Two capacities in multiples of 8 (divisible by every unit
        // count used below), both at least one max-sized block so the
        // caches stay under genuine eviction pressure.
        let cap_a = ((footprint / 3).max(u64::from(max_block)) / 8 + 1) * 8;
        let cap_b = ((footprint / 7).max(u64::from(max_block)) / 8 + 1) * 8;
        let rungs: Vec<LadderCell> = [cap_a, cap_b]
            .into_iter()
            .flat_map(|capacity| {
                [
                    Granularity::Flush,
                    Granularity::units(2),
                    Granularity::units(4),
                    Granularity::units(8),
                    Granularity::Superblock,
                ]
                .into_iter()
                .map(move |granularity| LadderCell {
                    granularity,
                    capacity,
                })
            })
            .collect();
        let mut streams: Vec<Vec<CacheEvent>> = vec![Vec::new(); rungs.len()];
        let mut observer = |cell: usize, event: CacheEvent| streams[cell].push(event);
        let results = simulate_ladder_observed(&log, &rungs, &base, &mut observer).unwrap();
        for (i, rung) in rungs.iter().enumerate() {
            let (want_result, want_events) = oracle_observed(&log, *rung, &base);
            assert_eq!(
                results[i],
                want_result,
                "case={case} {} @ {}",
                rung.granularity.label(),
                rung.capacity
            );
            assert_eq!(
                streams[i],
                want_events,
                "case={case} stream {} @ {}",
                rung.granularity.label(),
                rung.capacity
            );
        }
    }
}

/// The random traces again, as one sharded matrix: small universes at
/// 2, 3 and 10 shards put most links across shards, and the pressure
/// floor ([`cce_sim::pressure::MIN_CAPACITY`]) leaves 10-shard slices
/// smaller than the largest blocks, so uncacheable blocks occur.
#[test]
fn random_traces_conform_as_a_sharded_matrix() {
    let traces: Vec<TraceLog> = (0..24u64).map(random_trace).collect();
    let gs = [
        Granularity::Flush,
        Granularity::units(2),
        Granularity::units(4),
        Granularity::Superblock,
    ];
    let matrix = || {
        Replay::matrix(&traces)
            .granularities(&gs)
            .pressures(&[1, 2, 4])
            .shard_counts(&[2, 3, 10])
    };
    let naive = matrix().jobs(2).run().unwrap();
    assert!(
        naive.iter().any(|p| p.result.uncacheable > 0),
        "fixture lost its point"
    );
    for jobs in THREAD_COUNTS {
        let ladder = matrix().jobs(jobs).engine(Engine::Ladder).run().unwrap();
        assert_eq!(ladder, naive, "jobs={jobs}");
    }
}
