//! Sharded serving study: 1/2/4/8 shards at fixed total capacity
//! across the seven cache organizations.
//!
//! The ROADMAP's multi-tenant step splits one code cache into N
//! independently-evicting shards (`cce_core::shard`). This experiment
//! measures what that costs at a **fixed byte budget**: each shard
//! count splits the same total capacity, so every difference is pure
//! partitioning effect — imbalance between hash slices, and formerly
//! patchable intra-cache links turning into always-indirect cross-shard
//! links charged through Eq. 4 on target eviction.

use crate::Options;
use cce_core::shard::shard_capacities;
use cce_core::{
    AdaptiveUnits, AffinityUnits, CacheOrg, CodeCache, FineFifo, Generational, LruCache,
    PreemptiveFlush, ShardedCache, UnitFifo,
};
use cce_sim::metrics::unified_miss_rate;
use cce_sim::pressure::capacity_for_pressure;
use cce_sim::report::{pct, TextTable};
use cce_sim::simulator::{SimConfig, SimResult};
use cce_sim::Replay;
use cce_workloads::catalog;

/// Same benchmark trio as the policy ablation: small, medium, large.
const BENCHMARKS: [&str; 3] = ["gzip", "crafty", "gcc"];

/// The shard axis of the tentpole figure.
const SHARD_COUNTS: [u32; 4] = [1, 2, 4, 8];

/// The seven organizations of the workspace, by stable label.
const ORGS: [&str; 7] = [
    "unit FIFO (8)",
    "fine FIFO",
    "LRU",
    "preemptive",
    "adaptive",
    "affinity-8",
    "generational",
];

/// Builds one organization at one shard's capacity. Unit counts clamp
/// so every unit can hold the largest superblock — the same rule the
/// pressure sweeps apply to a bare cache.
pub(crate) fn build_org(kind: &str, capacity: u64, max_block: u64) -> Box<dyn CacheOrg> {
    let fit = u32::try_from((capacity / max_block.max(1)).max(1)).unwrap_or(u32::MAX);
    let units = 8.min(fit);
    match kind {
        "unit FIFO (8)" => Box::new(UnitFifo::new(capacity, units).expect("units fit")),
        "fine FIFO" => Box::new(FineFifo::new(capacity).expect("capacity > 0")),
        "LRU" => Box::new(LruCache::new(capacity).expect("capacity > 0")),
        "preemptive" => Box::new(PreemptiveFlush::new(capacity).expect("capacity > 0")),
        "adaptive" => Box::new(AdaptiveUnits::new(capacity, units, 1, 256).expect("valid bounds")),
        "affinity-8" => Box::new(AffinityUnits::new(capacity, units).expect("units fit")),
        "generational" => Box::new(Generational::new(capacity).expect("capacity > 0")),
        other => unreachable!("unknown org {other}"),
    }
}

/// A `ShardedCache` of `n` shards of one organization, splitting
/// `total` bytes evenly (first `total % n` shards get the extra byte).
fn sharded_org(kind: &str, total: u64, n: u32, max_block: u64) -> ShardedCache {
    let shards = shard_capacities(total, n)
        .into_iter()
        .map(|c| CodeCache::new(build_org(kind, c, max_block)))
        .collect();
    ShardedCache::new(shards).expect("shard count is positive")
}

/// One `(org, shard count)` cell aggregated over the benchmark trio.
struct ShardCell {
    misses_accesses: Vec<(u64, u64)>,
    evictions: u64,
    unlink_ops: u64,
    census_intra: u64,
    census_inter: u64,
    overhead: f64,
}

fn run_cell(
    traces: &[(cce_dbt::TraceLog, u64, u64)],
    kind: &str,
    n: u32,
    config: &SimConfig,
) -> ShardCell {
    let mut cell = ShardCell {
        misses_accesses: Vec::with_capacity(traces.len()),
        evictions: 0,
        unlink_ops: 0,
        census_intra: 0,
        census_inter: 0,
        overhead: 0.0,
    };
    for (trace, capacity, max_block) in traces {
        let session = sharded_org(kind, *capacity, n, *max_block);
        let r: SimResult = Replay::new(trace)
            .config(config)
            .session(session, format!("{kind} x{n}"))
            .run()
            .map(cce_sim::ReplayReport::into_solo)
            .expect("generated traces are well-formed");
        cell.misses_accesses
            .push((r.stats.misses, r.stats.accesses));
        cell.evictions += r.stats.eviction_invocations;
        cell.unlink_ops += r.stats.unlink_operations;
        cell.census_intra += r.census_intra_links;
        cell.census_inter += r.census_inter_links;
        cell.overhead += r.total_overhead();
    }
    cell
}

/// The `shards` command: every org at 1/2/4/8 shards, pressure 6,
/// fixed total capacity per benchmark.
pub fn shards(opts: &Options) -> String {
    let config = SimConfig::default();
    let traces: Vec<(cce_dbt::TraceLog, u64, u64)> = BENCHMARKS
        .iter()
        .map(|name| {
            let model = catalog::by_name(name).expect("table 1 benchmark");
            if opts.verbose {
                eprintln!("  [shards] {name}…");
            }
            let trace = model.trace(opts.scale, opts.seed);
            let capacity = capacity_for_pressure(trace.max_cache_bytes(), 6);
            let max_block = trace
                .superblocks
                .iter()
                .map(|s| u64::from(s.size))
                .max()
                .unwrap_or(1);
            (trace, capacity, max_block)
        })
        .collect();

    let mut t = TextTable::new(
        "Sharding — 1/2/4/8 shards at fixed total capacity (pressure 6, Eq. 4 charged)",
        [
            "org",
            "shards",
            "miss rate",
            "evictions",
            "unlink ops",
            "inter-link share",
            "overhead vs 1 shard",
        ],
    );
    for kind in ORGS {
        let mut base_overhead = None;
        for n in SHARD_COUNTS {
            let cell = run_cell(&traces, kind, n, &config);
            let base = *base_overhead.get_or_insert(cell.overhead);
            let live = cell.census_intra + cell.census_inter;
            t.row([
                kind.to_owned(),
                n.to_string(),
                pct(unified_miss_rate(cell.misses_accesses.iter().copied())),
                cell.evictions.to_string(),
                cell.unlink_ops.to_string(),
                if live == 0 {
                    "-".to_owned()
                } else {
                    pct(cell.census_inter as f64 / live as f64)
                },
                format!("{:.1}%", cell.overhead / base * 100.0),
            ]);
        }
    }
    let mut out = t.to_string();
    out.push_str(
        "\nReading: splitting a fixed byte budget over more shards leaves the\n\
         total capacity unchanged but narrows each eviction domain, so miss\n\
         rates drift up with shard count — hash imbalance wastes bytes in one\n\
         slice while another thrashes. The inter-link share climbs with N\n\
         (cross-shard links are always-indirect and join the inter-unit\n\
         census), and fine-grained orgs additionally pay Eq. 4 unlink charges\n\
         for cross-shard fan-in when a link target is evicted. One shard is\n\
         the degenerate case: byte-identical to the bare cache by the N=1\n\
         conformance suite.\n",
    );
    out
}
