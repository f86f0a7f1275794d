//! Workspace-level randomized tests: the trace-replay invariants must
//! hold for arbitrary traces, cache geometries and workload scales.
//!
//! Seeded deterministic sampling with [`cce_util::StdRng`] replaces the
//! old proptest harness — the build environment is offline.

use cce::core::idmap::DIRECT_IDS;
use cce::core::shard::shard_capacities;
use cce::core::{
    CacheError, CacheEvent, CacheSession, CacheStats, CodeCache, EventBuffer, Granularity,
    InsertRequest, ShardedCache, SuperblockId,
};
use cce::dbt::{SuperblockInfo, TraceEvent, TraceLog};
use cce::sim::pressure::{cell_config, TraceSizing, MIN_CAPACITY};
use cce::sim::simulator::{simulate_source_session, SimConfig, SimResult};
use cce::sim::{Engine as SweepEngine, OverheadModel, Replay};
use cce::tinyvm::program::Pc;
use cce_util::{Rng, StdRng};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

fn random_granularity(rng: &mut StdRng) -> Granularity {
    match rng.gen_range(0..9u32) {
        0 => Granularity::Flush,
        8 => Granularity::Superblock,
        p => Granularity::units(1 << p),
    }
}

/// Replays `trace` at `config`'s geometry over `shards` shards exactly as
/// the engines do, and sums Eqs. 2–4 event by event over the settled
/// stream: Eq. 3 per `Miss` (the block's registry size, so uncacheable
/// blocks count), Eq. 2 per `EvictionBegin…EvictionEnd` run (the bytes
/// of its `Evicted` blocks), Eq. 4 per `Unlinked` (its survivors).
/// Misses come from the shards' observers; evictions and unlinks from
/// the sharded cache's sink, where cross-shard unlinks are merged in.
fn per_event_reference(
    trace: &TraceLog,
    config: &SimConfig,
    shards: u32,
) -> (CacheStats, [f64; 3]) {
    let sizes: HashMap<SuperblockId, u32> =
        trace.superblocks.iter().map(|s| (s.id, s.size)).collect();
    let missed = Arc::new(Mutex::new(Vec::new()));
    let lanes = shard_capacities(config.capacity, shards)
        .into_iter()
        .map(|capacity| {
            let mut lane = CodeCache::with_granularity(config.granularity, capacity).unwrap();
            let log = Arc::clone(&missed);
            lane.set_observer(Box::new(move |ev: CacheEvent| {
                if let CacheEvent::Miss { id, .. } = ev {
                    log.lock().unwrap().push(id);
                }
            }));
            lane
        })
        .collect();
    let mut cache = ShardedCache::new(lanes).unwrap();
    let mut settled = EventBuffer::new();
    for &TraceEvent::Access { id, direct_from } in &trace.events {
        let hint = direct_from.filter(|f| cache.is_resident(*f));
        let req = InsertRequest::new(id, sizes[&id]).with_hint(hint);
        match cache.access_or_insert(req, &mut settled) {
            Ok(_) | Err(CacheError::BlockTooLarge { .. }) => {}
            Err(e) => panic!("{e}"),
        }
        if let Some(from) = direct_from {
            if config.chaining && cache.is_resident(from) && cache.is_resident(id) {
                cache.link(from, id).unwrap();
            }
        }
    }
    let model = OverheadModel::cgo2004();
    let mut sums = [0.0; 3];
    for id in missed.lock().unwrap().iter() {
        sums[0] += model.miss_cost(u64::from(sizes[id]));
    }
    let mut run_bytes = 0;
    for ev in settled.events() {
        match *ev {
            CacheEvent::EvictionBegin { .. } => run_bytes = 0,
            CacheEvent::Evicted { size, .. } => run_bytes += u64::from(size),
            CacheEvent::EvictionEnd { .. } => sums[1] += model.eviction_cost(run_bytes),
            CacheEvent::Unlinked { links, .. } => sums[2] += model.unlink_cost(links),
            _ => {}
        }
    }
    (cache.stats_snapshot(), sums)
}

/// Adds a block no cache at pressure 4 can hold (it outweighs the rest
/// of the trace and the capacity floor) and touches it every 997
/// events.
fn add_uncacheable_block(trace: &mut TraceLog) {
    let id = SuperblockId(trace.superblocks.len() as u64);
    trace.record_superblock(SuperblockInfo {
        id,
        head_pc: Pc(u64::MAX / 2),
        size: u32::try_from(trace.max_cache_bytes() + MIN_CAPACITY).unwrap(),
        guest_blocks: 1,
        exits: 0,
    });
    let touch = TraceEvent::Access {
        id,
        direct_from: None,
    };
    trace.events = trace
        .events
        .chunks(997)
        .flat_map(|chunk| chunk.iter().copied().chain([touch]))
        .collect();
}

/// Eqs. 2–4, charged once from a run's counters, equal their per-event
/// sum over the settled stream on both engines at 1–3 shards, including
/// traces with uncacheable blocks. Cost models observe, they never
/// steer: the observed reference replay has the engines' exact stats.
#[test]
fn overhead_charging_never_changes_behaviour() {
    let names = ["gzip", "mcf", "bzip2", "pinball"];
    let shard_counts = [1u32, 2, 3];
    for case in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(0x1A7E_6002 ^ case);
        let name = names[rng.gen_range(0..names.len())];
        let granularity = random_granularity(&mut rng);
        let seed = rng.gen_range(0..50u64);

        let mut trace = cce::workloads::by_name(name).unwrap().trace(0.1, seed);
        // Odd cases only: the oversized block clamps every unit count
        // to one, so even cases keep the multi-unit geometries.
        if case % 2 == 1 {
            add_uncacheable_block(&mut trace);
        }
        let matrix = |engine| {
            Replay::matrix(std::slice::from_ref(&trace))
                .granularities(&[granularity])
                .pressures(&[4])
                .shard_counts(&shard_counts)
                .engine(engine)
                .run()
                .unwrap()
        };
        let (naive, ladder) = (matrix(SweepEngine::Naive), matrix(SweepEngine::Ladder));
        let sizing = TraceSizing::of(&trace);
        for ((n, l), shards) in naive.iter().zip(&ladder).zip(shard_counts) {
            let config = cell_config(sizing, granularity, 4, shards, &SimConfig::default());
            let (stats, want) = per_event_reference(&trace, &config, shards);
            let ctx = format!("{name} seed {seed} ({granularity}, {shards} shards)");
            if case % 2 == 1 {
                assert!(
                    stats.misses > stats.insertions,
                    "{ctx}: nothing uncacheable"
                );
            }
            for r in [&n.result, &l.result] {
                assert_eq!(r.stats, stats, "{ctx}");
                let got = [r.miss_overhead, r.eviction_overhead, r.unlink_overhead];
                for (g, w) in got.into_iter().zip(want) {
                    assert!((g - w).abs() <= 1e-12 * w.abs(), "{ctx}: {g} vs {w}");
                }
                // Eq. 3 lower bound: every miss costs at least the intercept.
                assert!(r.miss_overhead >= r.stats.misses as f64 * 1922.0, "{ctx}");
                // Eq. 2 lower bound: every invocation costs at least the intercept.
                assert!(
                    r.eviction_overhead >= r.stats.eviction_invocations as f64 * 3055.0,
                    "{ctx}"
                );
            }
        }
    }
}

/// `trace` with every superblock id renamed by the injective `rename`.
fn renamed(trace: &TraceLog, rename: impl Fn(u64) -> u64) -> TraceLog {
    let id = |sb: SuperblockId| SuperblockId(rename(sb.0));
    let mut out = trace.clone();
    for info in &mut out.superblocks {
        info.id = id(info.id);
    }
    for TraceEvent::Access {
        id: to,
        direct_from,
    } in &mut out.events
    {
        *to = id(*to);
        *direct_from = direct_from.map(id);
    }
    out
}

/// Id tables index ids below `DIRECT_IDS` and hash the rest. A trace
/// renamed wholly into the hashed side, or straddling the bound,
/// replays on a bare cache to the result of its dense original.
#[test]
fn replays_agree_on_both_sides_of_the_direct_id_bound() {
    let trace = cce::workloads::by_name("gzip").unwrap().trace(0.1, 7);
    let half = trace.superblocks.len() as u64 / 2;
    let hashed = renamed(&trace, |id| id | 1 << 40);
    let straddling = renamed(&trace, |id| id + DIRECT_IDS - half);
    let sizing = TraceSizing::of(&trace);
    for granularity in [
        Granularity::Flush,
        Granularity::units(8),
        Granularity::Superblock,
    ] {
        let config = cell_config(sizing, granularity, 4, 1, &SimConfig::default());
        let replay = |t: &TraceLog| -> SimResult {
            let cache = CodeCache::with_granularity(granularity, config.capacity).unwrap();
            simulate_source_session(t, cache, granularity.to_string(), &config).unwrap()
        };
        let want = replay(&trace);
        assert!(
            want.stats.eviction_invocations > 0,
            "{granularity}: no eviction"
        );
        assert!(want.stats.links_created > 0, "{granularity}: no link");
        assert_eq!(replay(&hashed), want, "{granularity}: hashed ids");
        assert_eq!(replay(&straddling), want, "{granularity}: straddling ids");
    }
}

/// Workload scaling preserves the trace's structural calibration.
#[test]
fn scaled_workloads_keep_their_shape() {
    let names = ["gzip", "vpr", "gap", "winzip"];
    for case in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(0x1A7E_6003 ^ case);
        let name = names[rng.gen_range(0..names.len())];
        let scale = rng.gen_range(0.05..0.5f64);
        let seed = rng.gen_range(0..50u64);

        let model = cce::workloads::by_name(name).unwrap();
        let trace = model.trace(scale, seed);
        let s = trace.summary();
        let ctx = format!("{name} scale {scale:.3} seed {seed}");
        assert_eq!(s.superblock_count, model.scaled_superblocks(scale), "{ctx}");
        assert!(s.accesses >= model.scaled_accesses(scale), "{ctx}");
        // Median stays near the calibrated value at any scale; the
        // tolerance widens for tiny samples (the sample median of n
        // log-normal draws has standard error ~ σ·1.25/√n in log space).
        let n = s.superblock_count as f64;
        let tolerance = 0.15 + 2.0 / n.sqrt();
        let err = (f64::from(s.median_size) - f64::from(model.median_size)).abs();
        assert!(
            err <= f64::from(model.median_size) * tolerance,
            "median {} vs {} (n={n}, tol {tolerance:.2}) — {ctx}",
            s.median_size,
            model.median_size
        );
        // Out-degree respects the structural exit cap.
        assert!(s.mean_out_degree <= 2.0 + 1e-9, "{ctx}");
    }
}
