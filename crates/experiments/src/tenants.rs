//! Multi-tenant serving study: static capacity partition vs the
//! Memshare-style arbiter, per organization.
//!
//! Three guests of very different working-set sizes (gzip, crafty, gcc)
//! share one four-shard concurrent cache. The **static** rows give each
//! tenant an even third of the total byte budget for the whole run; the
//! **arbiter** rows start from the same even split and let the capacity
//! arbiter re-partition it at every review from decayed capacity-miss
//! windows (DESIGN.md §12). Everything else — traces, organizations,
//! cost models — is identical, so any hit-rate difference is pure
//! capacity steering. Runs use one worker thread, which makes the
//! arbiter path reproducible.

use crate::shards::build_org;
use crate::Options;
use cce_core::shard::shard_capacities;
use cce_core::{ArbiterConfig, ConcurrentSession, TenantConfig};
use cce_dbt::SharedTrace;
use cce_sim::metrics::unified_miss_rate;
use cce_sim::pressure::{capacity_for_pressure, TraceSizing};
use cce_sim::report::{pct, TextTable};
use cce_sim::simulator::{SimConfig, SimResult};
use cce_sim::{simulate_concurrent_with, ConcurrentSimConfig};
use cce_workloads::catalog;

/// Small, medium and large working sets — the imbalance the arbiter
/// exists to exploit.
const BENCHMARKS: [&str; 3] = ["gzip", "crafty", "gcc"];

/// Shards of the shared cache.
const SHARDS: u32 = 4;

/// The same organization axis as the sharding study.
const ORGS: [&str; 7] = [
    "unit FIFO (8)",
    "fine FIFO",
    "LRU",
    "preemptive",
    "adaptive",
    "affinity-8",
    "generational",
];

/// One tenant's inputs: trace plus the block-size bound its
/// organizations clamp their unit counts to.
struct Tenant {
    trace: SharedTrace,
    max_block: u64,
}

/// Builds the session (even budgets, optional arbiter), replays every
/// tenant's trace through it single-threaded, and returns the per-tenant
/// results plus (review count, total bytes moved).
fn run_mode(
    kind: &'static str,
    tenants: &[Tenant],
    budgets: &[u64],
    arbiter: Option<ArbiterConfig>,
    config: &SimConfig,
) -> (Vec<SimResult>, (usize, u64)) {
    let max_block = tenants.iter().map(|t| t.max_block).max().unwrap_or(1);
    let configs = budgets
        .iter()
        .map(|&b| TenantConfig::new(b, Box::new(move |c| Ok(build_org(kind, c, max_block)))))
        .collect();
    let session =
        ConcurrentSession::new(configs, SHARDS, arbiter).expect("tenant geometry is valid");
    let cfg = ConcurrentSimConfig {
        sim: *config,
        shards: SHARDS,
        threads: 1,
        ..ConcurrentSimConfig::default()
    };
    let traces: Vec<SharedTrace> = tenants.iter().map(|t| t.trace.clone()).collect();
    let results = simulate_concurrent_with(&session, &traces, &cfg)
        .expect("generated traces are well-formed");
    let decisions = session.decisions();
    let moved = decisions.iter().map(|d| d.bytes_moved).sum();
    (results, (decisions.len(), moved))
}

/// The `tenants` command: static even split vs arbiter for every
/// organization, three tenants on a four-shard concurrent cache.
pub fn tenants(opts: &Options) -> String {
    let config = SimConfig::default();
    let tenants: Vec<Tenant> = BENCHMARKS
        .iter()
        .map(|name| {
            let model = catalog::by_name(name).expect("table 1 benchmark");
            if opts.verbose {
                eprintln!("  [tenants] {name}…");
            }
            let log = model.trace(opts.scale, opts.seed);
            let trace = SharedTrace::from_log(&log);
            let max_block = TraceSizing::of_source(&trace).max_block_bytes;
            Tenant { trace, max_block }
        })
        .collect();
    // One shared byte budget sized to the combined working sets at
    // pressure 6, split evenly — gzip's third is generous, gcc's is
    // starvation, which is exactly the imbalance the arbiter can fix.
    let total: u64 = tenants
        .iter()
        .map(|t| capacity_for_pressure(TraceSizing::of_source(&t.trace).max_cache_bytes, 6))
        .sum();
    let budgets = shard_capacities(total, BENCHMARKS.len() as u32);
    let arbiter = ArbiterConfig {
        review_period: 1024,
        ..ArbiterConfig::default()
    };

    let mut t = TextTable::new(
        &format!(
            "Multi-tenant serving — static even split vs arbiter \
             ({} tenants, {SHARDS} shards, {total} B total)",
            BENCHMARKS.len()
        ),
        [
            "org",
            "mode",
            "gzip miss",
            "crafty miss",
            "gcc miss",
            "unified miss",
            "reviews",
            "bytes moved",
        ],
    );
    for kind in ORGS {
        for (mode, arb) in [("static", None), ("arbiter", Some(arbiter))] {
            let (results, (reviews, moved)) = run_mode(kind, &tenants, &budgets, arb, &config);
            let pairs: Vec<(u64, u64)> = results
                .iter()
                .map(|r| (r.stats.misses, r.stats.accesses))
                .collect();
            t.row([
                kind.to_owned(),
                mode.to_owned(),
                pct(results[0].stats.miss_rate()),
                pct(results[1].stats.miss_rate()),
                pct(results[2].stats.miss_rate()),
                pct(unified_miss_rate(pairs.iter().copied())),
                reviews.to_string(),
                moved.to_string(),
            ]);
        }
    }
    let mut out = t.to_string();
    out.push_str(
        "\nReading: the static rows replay each guest inside a fixed third of\n\
         the byte budget; they are byte-identical to that guest running alone\n\
         on a sharded cache of the same size (the concurrent conformance\n\
         suite). The arbiter rows start from the same split and move capacity\n\
         from the tenant with the lowest hit-rate-per-byte to the one with the\n\
         highest at every review, so the large-footprint guest (gcc) claws\n\
         bytes back from the small one (gzip) and the unified miss rate drops\n\
         whenever the working sets are genuinely imbalanced. `bytes moved`\n\
         totals the granted transfers; budgets always sum to the shared total\n\
         and never fall below the per-tenant floor.\n",
    );
    out
}
