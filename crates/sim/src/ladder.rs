//! Single-pass configuration-ladder engine (DESIGN.md §14).
//!
//! The paper's figures are grid sweeps — granularity × capacity ×
//! pressure — and the naive engine replays the full trace once per
//! cell: O(cells × events). This module simulates *every* cell of a
//! granularity/capacity ladder from **one** traversal of the event
//! stream. The key structural facts that make the fusion exact:
//!
//! * Both FIFO organizations ([`cce_core::UnitFifo`],
//!   [`cce_core::FineFifo`]) are deterministic functions of the access
//!   stream alone — no clocks, no randomness — so per-configuration
//!   state can be advanced in lockstep off shared per-superblock data.
//! * A miss triggers at most **one** eviction invocation in either
//!   organization (one round-robin unit flush, or one batched FIFO
//!   pop-run), so per-insert work per configuration is O(victims).
//! * Residency, first-touch ("seen") and link liveness are per-
//!   configuration *bits*; packing 64 configurations into `u64` masks
//!   turns hit classification and link bookkeeping into mask ops that
//!   touch only the configurations that actually miss.
//! * A sharded rung ([`cce_core::ShardedCache`] geometry) is still one
//!   bit lane. It holds one FIFO state per shard and routes each block
//!   to its home shard by the same jump hash the sharded cache uses, so
//!   a block lives in exactly one shard and the lane's residency bit
//!   stays exact. Cross-shard links sit in the same shared pair table;
//!   numbering units globally across the rung's shards makes "same
//!   shard and same unit" the ordinary intra-unit test.
//!
//! Results are **byte-identical** to the per-cell oracle — same
//! [`CacheStats`], hence the same Eq. 2–4 charge, and the same settled
//! event stream per cell (checked by `tests/ladder_conformance.rs`).
//! The naive path stays available as [`Engine::Naive`] and remains the
//! reference implementation.

use crate::overhead::OverheadModel;
use crate::simulator::{EventSource, SimConfig, SimError, SimResult};
use cce_core::idmap::IdMap;
use cce_core::shard::{jump_hash, shard_capacities};
use cce_core::{
    CacheError, CacheEvent, CacheStats, EventSink, EvictionScope, Granularity, SuperblockId,
};
use cce_dbt::TraceEvent;
use std::collections::VecDeque;

/// Which simulation engine a [`crate::ReplayMatrix`] runs its grid on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// One full trace replay per grid cell. The oracle: every other
    /// engine must reproduce its output byte-for-byte.
    #[default]
    Naive,
    /// The single-pass configuration ladder in this module: all cells
    /// of a trace simulated from one traversal of its event stream.
    Ladder,
}

/// One rung of the ladder: a granularity at an exact capacity.
///
/// For `Units(n)` granularities the capacity must be divisible by `n`
/// (the truncation the naive [`cce_core::UnitFifo`] constructor applies
/// silently is rejected here as a [`SimError::Config`], so the caller
/// states the effective capacity explicitly).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LadderCell {
    /// Eviction granularity for this rung.
    pub granularity: Granularity,
    /// Exact cache capacity in bytes for this rung.
    pub capacity: u64,
}

/// Receives the per-cell settled event stream from a ladder run, in
/// exactly the order the naive engine's [`cce_core::CodeCache`]
/// observer would see it for that cell.
///
/// `ACTIVE` lets the no-observer fast path compile the emission loops
/// out entirely (hit events in particular are otherwise free).
pub trait LadderObserver {
    /// `false` only for [`NoObserver`]: emission sites are skipped at
    /// compile time when the observer cannot consume them.
    const ACTIVE: bool = true;
    /// One settled event for ladder cell `cell` (index into the
    /// `cells` slice passed to [`simulate_ladder_observed`]).
    fn on_event(&mut self, cell: usize, event: CacheEvent);
}

/// Zero-cost observer for the plain [`simulate_ladder_source`] path.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoObserver;

impl LadderObserver for NoObserver {
    const ACTIVE: bool = false;
    fn on_event(&mut self, _cell: usize, _event: CacheEvent) {}
}

impl<F: FnMut(usize, CacheEvent)> LadderObserver for F {
    fn on_event(&mut self, cell: usize, event: CacheEvent) {
        self(cell, event)
    }
}

/// One cell's view of a [`LadderObserver`] as an [`EventSink`], so the
/// ladder emits each eviction invocation through the core's
/// [`EvictionScope`] like every organization does.
struct CellSink<'a, O> {
    obs: &'a mut O,
    cell: usize,
}

impl<O: LadderObserver> EventSink for CellSink<'_, O> {
    fn event(&mut self, event: CacheEvent) {
        self.obs.on_event(self.cell, event);
    }
}

/// Configurations simulated per pass: residency/seen/link-liveness are
/// one bit per configuration in a `u64`. Larger ladders run in batches
/// of 64, re-traversing the source once per batch.
pub(crate) const MAX_LADDER_BATCH: usize = 64;

/// Simulate every `cells` rung in a single pass over `source` (one
/// pass per 64-cell batch). `base` supplies the `chaining` switch;
/// granularity and capacity come from each rung.
///
/// Returns one [`SimResult`] per rung, in `cells` order, byte-identical
/// to what the naive engine produces for the same configuration.
///
/// # Errors
///
/// [`SimError::Config`] for an empty ladder or a `Units(n)` rung whose
/// capacity is not divisible by `n`; [`SimError::Cache`] for rung
/// geometry the organizations themselves reject (zero capacity, more
/// units than bytes); [`SimError::EmptyTrace`],
/// [`SimError::UnknownSuperblock`] and [`SimError::Ingest`] exactly as
/// the naive engine reports them.
pub fn simulate_ladder_source<T: EventSource + ?Sized>(
    source: &T,
    cells: &[LadderCell],
    base: &SimConfig,
) -> Result<Vec<SimResult>, SimError> {
    simulate_ladder_observed(source, cells, base, &mut NoObserver)
}

/// [`simulate_ladder_source`] with a per-cell event observer. The
/// stream delivered for each cell is byte-identical to the settled
/// stream the naive engine's cache observer sees for that cell.
///
/// # Errors
///
/// As [`simulate_ladder_source`].
pub fn simulate_ladder_observed<T, O>(
    source: &T,
    cells: &[LadderCell],
    base: &SimConfig,
    observer: &mut O,
) -> Result<Vec<SimResult>, SimError>
where
    T: EventSource + ?Sized,
    O: LadderObserver,
{
    let mut rungs = Vec::with_capacity(cells.len());
    for cell in cells {
        let rung = Rung {
            granularity: cell.granularity,
            capacity: cell.capacity,
            shards: 1,
        };
        // One shard: its effective capacity differs from the requested
        // one exactly when the unit truncation would bite.
        if rung.shard_geometry()?.first() != Some(&cell.capacity) {
            return Err(SimError::Config(
                "ladder capacity must be divisible by the granularity's unit count",
            ));
        }
        rungs.push(rung);
    }
    simulate_rungs(source, &rungs, base, observer)
}

/// A rung as the engine runs it: a granularity at a *total* capacity
/// split over `shards` consistent-hashed shards (1 = a bare cache).
/// Unlike [`LadderCell`], the capacity is taken as
/// [`cce_core::ShardedCache::with_granularity`] takes it: each shard
/// truncates its slice to a unit multiple silently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Rung {
    pub(crate) granularity: Granularity,
    pub(crate) capacity: u64,
    pub(crate) shards: u32,
}

impl Rung {
    /// Effective per-shard capacities: [`shard_capacities`]' even split,
    /// each truncated as [`cce_core::UnitFifo`] truncates it, rejected
    /// with the errors [`cce_core::ShardedCache::with_granularity`]
    /// returns for the same geometry.
    pub(crate) fn shard_geometry(&self) -> Result<Vec<u64>, CacheError> {
        let capacities = shard_capacities(self.capacity, self.shards);
        if capacities.is_empty() {
            return Err(CacheError::ZeroCapacity);
        }
        capacities
            .into_iter()
            .map(|capacity| match self.granularity.unit_count() {
                _ if capacity == 0 => Err(CacheError::ZeroCapacity),
                Some(units) if u64::from(units) > capacity => {
                    Err(CacheError::TooManyUnits { units, capacity })
                }
                Some(units) => Ok(capacity / u64::from(units) * u64::from(units)),
                None => Ok(capacity),
            })
            .collect()
    }
}

/// [`simulate_ladder_observed`] over engine rungs, sharded or not: the
/// entry point a sweep's ladder pass runs. Lanes never read each
/// other's bits, so a rung's result does not depend on which rungs
/// share its pass — the sweep may split a trace's rungs over passes.
///
/// # Errors
///
/// As [`simulate_ladder_source`], minus the divisibility check: shard
/// slices are truncated, never rejected, as the sharded cache does.
pub(crate) fn simulate_rungs<T, O>(
    source: &T,
    rungs: &[Rung],
    base: &SimConfig,
    observer: &mut O,
) -> Result<Vec<SimResult>, SimError>
where
    T: EventSource + ?Sized,
    O: LadderObserver,
{
    if rungs.is_empty() {
        return Err(SimError::Config("ladder needs at least one configuration"));
    }
    let geometry = rungs
        .iter()
        .map(Rung::shard_geometry)
        .collect::<Result<Vec<_>, _>>()?;
    if source.event_count() == 0 {
        return Err(SimError::EmptyTrace);
    }
    let mut results = Vec::with_capacity(rungs.len());
    for (batch_idx, (batch, shapes)) in rungs
        .chunks(MAX_LADDER_BATCH)
        .zip(geometry.chunks(MAX_LADDER_BATCH))
        .enumerate()
    {
        let cell_base = batch_idx * MAX_LADDER_BATCH;
        results.extend(run_batch(source, batch, shapes, base, observer, cell_base)?);
    }
    Ok(results)
}

/// A directed chaining edge in the shared link table. `live` holds one
/// bit per configuration in the current batch: the pair is a live link
/// in that configuration's cache.
struct Pair {
    from: u32,
    to: u32,
    live: u64,
}

/// Per-batch state shared by every configuration: the superblock
/// registry (dense indices), per-superblock residency/first-touch bit
/// masks, and the link table with per-endpoint adjacency.
struct Shared {
    ids: Vec<SuperblockId>,
    sizes: Vec<u32>,
    /// Bit c set: superblock resident in configuration c's cache.
    resident: Vec<u64>,
    /// Bit c set: configuration c has inserted this superblock before
    /// (drives the cold/capacity miss split).
    seen: Vec<u64>,
    pairs: Vec<Pair>,
    /// Pair indices with this superblock as `to` / as `from`.
    in_pairs: Vec<Vec<u32>>,
    out_pairs: Vec<Vec<u32>>,
    /// Generation stamp marking the victims of the eviction invocation
    /// in flight, for the survivor/co-victim unlink split.
    dying_stamp: Vec<u64>,
    stamp: u64,
}

/// One round-robin unit of a `Units(n)` configuration.
#[derive(Default)]
struct LadderUnit {
    blocks: Vec<u32>,
    used: u64,
}

/// Organization-specific state of one shard of a ladder rung.
enum OrgState {
    /// Mirror of [`cce_core::UnitFifo`]: `n` equal units filled
    /// round-robin, the next unit flushed whole when the head fills.
    Unit {
        unit_capacity: u64,
        head: usize,
        units: Vec<LadderUnit>,
        /// Rung-wide number of this shard's unit 0: shard `s` of an
        /// `n`-unit rung owns units `s·n .. (s+1)·n`.
        first_unit: u32,
    },
    /// Mirror of [`cce_core::FineFifo`]: one insertion-order queue,
    /// oldest blocks popped until the newcomer fits.
    Fine { capacity: u64, queue: VecDeque<u32> },
}

/// One shard's FIFO state: the whole cache for an unsharded rung.
struct ShardState {
    /// Largest insertable block (unit capacity for `Units`, whole
    /// capacity for fine FIFO) — beyond it the block is uncacheable.
    max_insert: u64,
    used: u64,
    resident_blocks: u64,
    org: OrgState,
}

impl ShardState {
    /// Shard `s` of a rung with `unit_count` units per shard (`None`:
    /// fine FIFO), at its effective `capacity`.
    fn new(unit_count: Option<u32>, s: usize, capacity: u64) -> ShardState {
        let (max_insert, org) = match unit_count {
            Some(n) => {
                let unit_capacity = capacity / u64::from(n);
                let org = OrgState::Unit {
                    unit_capacity,
                    head: 0,
                    units: (0..n).map(|_| LadderUnit::default()).collect(),
                    first_unit: u32::try_from(s).unwrap_or(u32::MAX).saturating_mul(n),
                };
                (unit_capacity, org)
            }
            None => {
                let queue = VecDeque::new();
                (capacity, OrgState::Fine { capacity, queue })
            }
        };
        ShardState {
            max_insert,
            used: 0,
            resident_blocks: 0,
            org,
        }
    }
}

/// Full state of one ladder rung: its bit lane, geometry, per-shard
/// organizations and the per-cell counters a [`SimResult`] is
/// assembled from.
struct ConfigState {
    bit: u64,
    /// Sum of the shards' effective capacities.
    capacity: u64,
    /// Shard 0 — the whole cache of an unsharded rung — kept inline, so
    /// an unsharded lane's miss touches no state outside its rung.
    shard0: ShardState,
    /// Shards 1.. of a sharded rung.
    more_shards: Vec<ShardState>,
    /// Index of the batch's home-shard table for this rung's shard
    /// count; `None` for an unsharded rung (everything in shard 0).
    home: Option<usize>,
    /// Rung-wide unit number each superblock was inserted into (valid
    /// while resident; drives the intra/inter link split). Empty for
    /// fine FIFO, where every block is its own unit.
    unit_of: Vec<u32>,
    /// Fine FIFO victim buffer reused across invocations.
    scratch: Vec<u32>,
    stats: CacheStats,
    uncacheable: u64,
    /// Running link counts maintained eagerly so the periodic census
    /// is O(1) per configuration instead of a graph walk.
    live_intra: u64,
    live_inter: u64,
    census_intra: u64,
    census_inter: u64,
    label: String,
}

impl ConfigState {
    /// `capacities` are the rung's effective per-shard capacities
    /// ([`Rung::shard_geometry`], never empty).
    fn new(
        lane: usize,
        rung: &Rung,
        capacities: &[u64],
        home: Option<usize>,
        blocks: usize,
    ) -> ConfigState {
        let unit_count = rung.granularity.unit_count();
        ConfigState {
            bit: 1u64 << lane,
            capacity: capacities.iter().sum(),
            shard0: ShardState::new(unit_count, 0, capacities[0]),
            more_shards: (1..capacities.len())
                .map(|s| ShardState::new(unit_count, s, capacities[s]))
                .collect(),
            home,
            unit_of: if unit_count.is_some() {
                vec![0; blocks]
            } else {
                Vec::new()
            },
            scratch: Vec::new(),
            stats: CacheStats::new(),
            uncacheable: 0,
            live_intra: 0,
            live_inter: 0,
            census_intra: 0,
            census_inter: 0,
            label: rung.granularity.label(),
        }
    }

    fn shard(&self, s: usize) -> &ShardState {
        if s == 0 {
            &self.shard0
        } else {
            &self.more_shards[s - 1]
        }
    }

    fn unit_of_slice(&self) -> Option<&[u32]> {
        (!self.unit_of.is_empty()).then_some(&self.unit_of)
    }
}

/// Same unit-locality split [`cce_core::CodeCache`] applies: self-links
/// are intra, fine FIFO puts every block in its own unit, unit FIFO
/// compares rung-wide unit numbers — so a link across shards, which
/// [`cce_core::ShardedCache`] counts inter-unit, is never intra.
fn pair_is_intra(from: u32, to: u32, unit_of: Option<&[u32]>) -> bool {
    from == to || unit_of.is_some_and(|u| u[from as usize] == u[to as usize])
}

fn run_batch<T, O>(
    source: &T,
    rungs: &[Rung],
    geometry: &[Vec<u64>],
    base: &SimConfig,
    obs: &mut O,
    cell_base: usize,
) -> Result<Vec<SimResult>, SimError>
where
    T: EventSource + ?Sized,
    O: LadderObserver,
{
    let registry = source.registry();
    let event_count = source.event_count();
    let blocks = registry.len();
    // Dense indices; on duplicate ids the later entry wins, matching
    // the naive engine's size-map insertion.
    let mut id_to_idx: IdMap<u32> = IdMap::with_capacity(blocks);
    let mut ids = Vec::with_capacity(blocks);
    let mut sizes = Vec::with_capacity(blocks);
    for info in registry {
        id_to_idx.insert(info.id, u32::try_from(ids.len()).unwrap_or(u32::MAX));
        ids.push(info.id);
        sizes.push(info.size);
    }
    let mut sh = Shared {
        ids,
        sizes,
        resident: vec![0; blocks],
        seen: vec![0; blocks],
        pairs: Vec::new(),
        in_pairs: vec![Vec::new(); blocks],
        out_pairs: vec![Vec::new(); blocks],
        dying_stamp: vec![0; blocks],
        stamp: 0,
    };
    // One home-shard table per distinct shard count in the batch, built
    // with the sharded cache's own routing function.
    let mut homes: Vec<(u32, Vec<u32>)> = Vec::new();
    let mut configs: Vec<ConfigState> = Vec::with_capacity(rungs.len());
    for (lane, (rung, capacities)) in rungs.iter().zip(geometry).enumerate() {
        let home = (rung.shards > 1).then(|| {
            homes
                .iter()
                .position(|(n, _)| *n == rung.shards)
                .unwrap_or_else(|| {
                    let table = sh.ids.iter().map(|id| jump_hash(id.0, rung.shards));
                    homes.push((rung.shards, table.collect()));
                    homes.len() - 1
                })
        });
        configs.push(ConfigState::new(lane, rung, capacities, home, blocks));
    }
    let full: u64 = if rungs.len() == MAX_LADDER_BATCH {
        u64::MAX
    } else {
        (1u64 << rungs.len()) - 1
    };
    let census_every = (usize::try_from(event_count).unwrap_or(usize::MAX) / 64).max(1);
    let mut event_idx: u64 = 0;

    for chunk in source.event_chunks() {
        for event in chunk {
            let TraceEvent::Access { id, direct_from } = *event;
            let Some(&block) = id_to_idx.get(&id) else {
                return Err(SimError::UnknownSuperblock(id));
            };
            let b = block as usize;
            let size = sh.sizes[b];
            let res_mask = sh.resident[b];
            if O::ACTIVE {
                let mut hits = res_mask & full;
                while hits != 0 {
                    let lane = hits.trailing_zeros() as usize;
                    hits &= hits - 1;
                    obs.on_event(cell_base + lane, CacheEvent::Hit { id });
                }
            }
            let mut misses = full & !res_mask;
            while misses != 0 {
                let lane = misses.trailing_zeros() as usize;
                misses &= misses - 1;
                let cfg = &mut configs[lane];
                let cold = sh.seen[b] & cfg.bit == 0;
                cfg.stats.misses += 1;
                cfg.stats.miss_bytes += u64::from(size);
                if cold {
                    cfg.stats.cold_misses += 1;
                } else {
                    cfg.stats.capacity_misses += 1;
                }
                if O::ACTIVE {
                    obs.on_event(cell_base + lane, CacheEvent::Miss { id, cold });
                }
                if size == 0 {
                    return Err(SimError::Cache(CacheError::ZeroSize(id)));
                }
                let shard = cfg.home.map_or(0, |h| homes[h].1[b] as usize);
                if u64::from(size) > cfg.shard(shard).max_insert {
                    // Uncacheable in this rung: the miss stands (its
                    // bytes are charged), nothing is inserted (and
                    // first-touch is not recorded — every future miss
                    // on it stays cold, exactly as in the oracle).
                    cfg.uncacheable += 1;
                } else {
                    miss_insert(cfg, shard, &mut sh, b, size, obs, cell_base + lane);
                }
            }
            if base.chaining {
                if let Some(from) = direct_from {
                    if let Some(&from_block) = id_to_idx.get(&from) {
                        let both = sh.resident[from_block as usize] & sh.resident[b] & full;
                        if both != 0 {
                            link_configs(&mut sh, &mut configs, from_block, block, both);
                        }
                    }
                }
            }
            let idx = usize::try_from(event_idx).unwrap_or(usize::MAX);
            if idx % census_every == census_every - 1 {
                for cfg in &mut configs {
                    cfg.census_intra += cfg.live_intra;
                    cfg.census_inter += cfg.live_inter;
                }
            }
            event_idx += 1;
        }
    }
    if event_idx != event_count {
        return Err(SimError::Ingest(format!(
            "event stream delivered {event_idx} events but promised {event_count}"
        )));
    }
    let name = source.source_name();
    Ok(configs
        .into_iter()
        .map(|cfg| {
            let mut stats = cfg.stats;
            stats.accesses = event_count;
            // Every access is exactly one hit or one miss.
            stats.hits = event_count - stats.misses;
            let (miss_overhead, eviction_overhead, unlink_overhead) =
                OverheadModel::cgo2004().charge(&stats);
            SimResult {
                name: name.to_owned(),
                granularity_label: cfg.label,
                capacity: cfg.capacity,
                stats,
                miss_overhead,
                eviction_overhead,
                unlink_overhead,
                uncacheable: cfg.uncacheable,
                census_intra_links: cfg.census_intra,
                census_inter_links: cfg.census_inter,
            }
        })
        .collect())
}

/// Insert superblock `b` into its home `shard` of one rung after a
/// miss, evicting exactly as that shard's organization would.
fn miss_insert<O: LadderObserver>(
    cfg: &mut ConfigState,
    shard: usize,
    sh: &mut Shared,
    b: usize,
    size: u32,
    obs: &mut O,
    cell: usize,
) {
    let ConfigState {
        bit,
        shard0,
        more_shards,
        unit_of,
        scratch,
        stats,
        live_intra,
        live_inter,
        ..
    } = cfg;
    let ShardState {
        used,
        resident_blocks,
        org,
        ..
    } = if shard == 0 {
        shard0
    } else {
        &mut more_shards[shard - 1]
    };
    let bit = *bit;
    let sz = u64::from(size);
    match org {
        OrgState::Unit {
            unit_capacity,
            head,
            units,
            first_unit,
        } => {
            if units[*head].used + sz > *unit_capacity {
                let padding = *unit_capacity - units[*head].used;
                if padding > 0 {
                    stats.padding_bytes += padding;
                    if O::ACTIVE {
                        obs.on_event(cell, CacheEvent::Padding { bytes: padding });
                    }
                }
                *head = (*head + 1) % units.len();
                if !units[*head].blocks.is_empty() {
                    let mut victims = std::mem::take(&mut units[*head].blocks);
                    *used -= units[*head].used;
                    units[*head].used = 0;
                    *resident_blocks -= victims.len() as u64;
                    process_invocation(
                        sh,
                        &victims,
                        bit,
                        Some(unit_of.as_slice()),
                        stats,
                        live_intra,
                        live_inter,
                        obs,
                        cell,
                    );
                    victims.clear();
                    units[*head].blocks = victims;
                }
            }
            let h = *head;
            units[h].blocks.push(b as u32);
            units[h].used += sz;
            unit_of[b] = first_unit.saturating_add(u32::try_from(h).unwrap_or(u32::MAX));
        }
        OrgState::Fine { capacity, queue } => {
            if *used + sz > *capacity {
                let mut victims = std::mem::take(scratch);
                while *used + sz > *capacity {
                    // The queue cannot run dry while `used > 0`; the
                    // `else` arm keeps this loop panic-free regardless.
                    let Some(victim) = queue.pop_front() else {
                        break;
                    };
                    *used -= u64::from(sh.sizes[victim as usize]);
                    victims.push(victim);
                }
                *resident_blocks -= victims.len() as u64;
                process_invocation(
                    sh, &victims, bit, None, stats, live_intra, live_inter, obs, cell,
                );
                victims.clear();
                *scratch = victims;
            }
            queue.push_back(b as u32);
        }
    }
    *used += sz;
    *resident_blocks += 1;
    sh.resident[b] |= bit;
    sh.seen[b] |= bit;
    stats.insertions += 1;
    stats.bytes_inserted += sz;
    stats.high_water_bytes = stats.high_water_bytes.max(*used);
    stats.high_water_blocks = stats.high_water_blocks.max(*resident_blocks);
    if O::ACTIVE {
        obs.on_event(
            cell,
            CacheEvent::Inserted {
                id: sh.ids[b],
                size,
            },
        );
    }
}

/// Process one eviction invocation for one rung: clear the victims'
/// residency and live-link bits, split removed links into explicit
/// unlink operations (a surviving predecessor must be unlinked) versus
/// links dropped for free (both endpoints dying), and emit the settled
/// event run.
#[allow(clippy::too_many_arguments)]
fn process_invocation<O: LadderObserver>(
    sh: &mut Shared,
    victims: &[u32],
    bit: u64,
    unit_of: Option<&[u32]>,
    stats: &mut CacheStats,
    live_intra: &mut u64,
    live_inter: &mut u64,
    obs: &mut O,
    cell: usize,
) {
    let Shared {
        ids,
        sizes,
        resident,
        pairs,
        in_pairs,
        out_pairs,
        dying_stamp,
        stamp,
        ..
    } = sh;
    *stamp += 1;
    let now = *stamp;
    let mut bytes = 0u64;
    for &victim in victims {
        dying_stamp[victim as usize] = now;
        bytes += u64::from(sizes[victim as usize]);
    }
    stats.eviction_invocations += 1;
    stats.blocks_evicted += victims.len() as u64;
    stats.bytes_evicted += bytes;
    let mut sink = CellSink { obs, cell };
    let mut scope = O::ACTIVE.then(|| EvictionScope::new(&mut sink));
    let mut removed = 0u64;
    let mut unlinked = 0u64;
    for &victim in victims {
        let v = victim as usize;
        // Incoming edges from a non-dying source are the ones the
        // oracle charges an explicit unlink for; everything else dies
        // with the invocation for free. A cross-shard source never dies
        // here (an invocation stays in its shard), so its link joins the
        // victim's one `Unlinked`, as `ShardedCache`'s merge charges it.
        let mut survivors = 0u32;
        for &p in &in_pairs[v] {
            let pair = &mut pairs[p as usize];
            if pair.live & bit != 0 {
                pair.live &= !bit;
                removed += 1;
                if pair_is_intra(pair.from, pair.to, unit_of) {
                    *live_intra -= 1;
                } else {
                    *live_inter -= 1;
                }
                if dying_stamp[pair.from as usize] != now {
                    survivors += 1;
                }
            }
        }
        for &p in &out_pairs[v] {
            let pair = &mut pairs[p as usize];
            if pair.live & bit != 0 {
                pair.live &= !bit;
                removed += 1;
                if pair_is_intra(pair.from, pair.to, unit_of) {
                    *live_intra -= 1;
                } else {
                    *live_inter -= 1;
                }
            }
        }
        resident[v] &= !bit;
        if let Some(scope) = &mut scope {
            scope.evict(ids[v], sizes[v]);
        }
        if survivors > 0 {
            stats.unlink_operations += 1;
            stats.links_unlinked += u64::from(survivors);
            unlinked += u64::from(survivors);
            if let Some(scope) = &mut scope {
                scope.unlinked(survivors);
            }
        }
    }
    let dropped = removed - unlinked;
    stats.links_dropped_free += dropped;
    if let Some(scope) = scope {
        scope.close(dropped);
    }
}

/// Record a chainable transition `from → to` observed while both
/// endpoints are resident in the configurations of `both`: create the
/// link in every such configuration where it is not already live,
/// with the oracle's intra/inter-unit classification.
fn link_configs(sh: &mut Shared, configs: &mut [ConfigState], from: u32, to: u32, both: u64) {
    // A block's successor set is bounded by its exit-stub count, so a
    // linear probe of its out-edges beats a hash lookup on this path.
    let pair_idx = match sh.out_pairs[from as usize]
        .iter()
        .find(|&&p| sh.pairs[p as usize].to == to)
    {
        Some(&p) => p as usize,
        None => {
            let p = u32::try_from(sh.pairs.len()).unwrap_or(u32::MAX);
            sh.pairs.push(Pair { from, to, live: 0 });
            sh.in_pairs[to as usize].push(p);
            sh.out_pairs[from as usize].push(p);
            p as usize
        }
    };
    let mut fresh = both & !sh.pairs[pair_idx].live;
    if fresh == 0 {
        return;
    }
    sh.pairs[pair_idx].live |= fresh;
    while fresh != 0 {
        let lane = fresh.trailing_zeros() as usize;
        fresh &= fresh - 1;
        let cfg = &mut configs[lane];
        let intra = pair_is_intra(from, to, cfg.unit_of_slice());
        cfg.stats.links_created += 1;
        if intra {
            cfg.live_intra += 1;
        } else {
            cfg.stats.inter_unit_links_created += 1;
            cfg.live_inter += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::Replay;
    use cce_workloads::catalog;

    fn trace() -> cce_dbt::TraceLog {
        catalog::by_name("gzip").unwrap().trace(0.05, 7)
    }

    /// The per-cell oracle for one rung via the public Replay front
    /// door (capacity pre-truncated so the builders agree exactly).
    fn oracle(trace: &cce_dbt::TraceLog, cell: LadderCell, base: &SimConfig) -> SimResult {
        Replay::new(trace)
            .config(base)
            .granularity(cell.granularity)
            .capacity(cell.capacity)
            .run()
            .unwrap()
            .into_solo()
    }

    fn ladder_cells(max_cache: u64) -> Vec<LadderCell> {
        let mut cells = Vec::new();
        for granularity in [
            Granularity::Flush,
            Granularity::units(2),
            Granularity::units(8),
            Granularity::Superblock,
        ] {
            for pressure in [2u64, 6, 10] {
                let capacity = (max_cache / pressure).max(4096);
                let capacity = match granularity.unit_count() {
                    Some(n) => (capacity / u64::from(n)) * u64::from(n),
                    None => capacity,
                };
                cells.push(LadderCell {
                    granularity,
                    capacity,
                });
            }
        }
        cells
    }

    #[test]
    fn ladder_matches_oracle_cell_by_cell() {
        let trace = trace();
        let base = SimConfig::default();
        let cells = ladder_cells(trace.max_cache_bytes());
        let results = simulate_ladder_source(&trace, &cells, &base).unwrap();
        assert_eq!(results.len(), cells.len());
        for (cell, got) in cells.iter().zip(&results) {
            let want = oracle(&trace, *cell, &base);
            assert_eq!(
                got,
                &want,
                "{} @ {}",
                cell.granularity.label(),
                cell.capacity
            );
        }
    }

    #[test]
    fn ladder_matches_oracle_with_switches_off() {
        let trace = trace();
        let base = SimConfig {
            chaining: false,
            ..SimConfig::default()
        };
        let cells = ladder_cells(trace.max_cache_bytes());
        let results = simulate_ladder_source(&trace, &cells, &base).unwrap();
        for (cell, got) in cells.iter().zip(&results) {
            assert_eq!(got, &oracle(&trace, *cell, &base));
        }
    }

    #[test]
    fn batches_beyond_sixty_four_cells_match_a_single_batch() {
        let trace = catalog::by_name("mcf").unwrap().trace(0.05, 3);
        let base = SimConfig::default();
        // 72 rungs: the 12-cell ladder tiled six times; batch 2 must
        // reproduce batch 1 exactly (each batch re-reads the source).
        let cells: Vec<LadderCell> = (0..6)
            .flat_map(|_| ladder_cells(trace.max_cache_bytes()))
            .collect();
        assert!(cells.len() > MAX_LADDER_BATCH);
        let results = simulate_ladder_source(&trace, &cells, &base).unwrap();
        for (a, b) in results.iter().zip(results.iter().skip(12)) {
            assert_eq!(a, b);
        }
        // Spot-check one rung in each batch against the oracle.
        assert_eq!(results[1], oracle(&trace, cells[1], &base));
        assert_eq!(results[65], oracle(&trace, cells[65], &base));
    }

    #[test]
    fn empty_ladder_is_a_config_error() {
        let trace = trace();
        let err = simulate_ladder_source(&trace, &[], &SimConfig::default()).unwrap_err();
        assert!(matches!(err, SimError::Config(_)), "{err:?}");
    }

    #[test]
    fn indivisible_capacity_is_a_config_error_not_a_panic() {
        let trace = trace();
        let cells = [LadderCell {
            granularity: Granularity::units(3),
            capacity: 1_000_001,
        }];
        let err = simulate_ladder_source(&trace, &cells, &SimConfig::default()).unwrap_err();
        assert!(matches!(err, SimError::Config(_)), "{err:?}");
    }

    #[test]
    fn degenerate_geometry_errors_match_the_organizations() {
        let trace = trace();
        let zero = [LadderCell {
            granularity: Granularity::Flush,
            capacity: 0,
        }];
        assert_eq!(
            simulate_ladder_source(&trace, &zero, &SimConfig::default()).unwrap_err(),
            SimError::Cache(CacheError::ZeroCapacity)
        );
        let crowded = [LadderCell {
            granularity: Granularity::units(64),
            capacity: 32,
        }];
        assert!(matches!(
            simulate_ladder_source(&trace, &crowded, &SimConfig::default()).unwrap_err(),
            SimError::Cache(CacheError::TooManyUnits { .. })
        ));
    }

    /// Ids whose home at two shards is `shard`, by the sharded cache's
    /// own routing.
    fn homed(shard: u32) -> impl Iterator<Item = SuperblockId> {
        (0u64..)
            .filter(move |&k| jump_hash(k, 2) == shard)
            .map(SuperblockId)
    }

    #[test]
    fn two_shard_links_charge_like_the_sharded_cache() {
        use cce_core::{CacheSession, EventBuffer, ShardedCache};
        let four = |shard| -> [SuperblockId; 4] {
            homed(shard).take(4).collect::<Vec<_>>().try_into().unwrap()
        };
        let [b, c, f1, f2] = four(1);
        let [a, g1, g2, g3] = four(0);
        let mut trace = cce_dbt::TraceLog::new("two-shard");
        for id in [a, b, c, f1, f2, g1, g2, g3] {
            trace.record_superblock(cce_dbt::SuperblockInfo {
                id,
                head_pc: cce_tinyvm::program::Pc(id.0 * 0x40),
                size: 60,
                guest_blocks: 2,
                exits: 2,
            });
        }
        // 200 bytes per shard hold three blocks. c → b is intra-shard,
        // a → b crosses shards; f2 evicts b while c and a survive. Then
        // a → c crosses shards and g3 evicts a, the link's source.
        for (id, from) in [
            (b, None),
            (c, None),
            (b, Some(c)),
            (a, None),
            (b, Some(a)),
            (f1, None),
            (f2, None),
            (c, Some(a)),
            (g1, None),
            (g2, None),
            (g3, None),
        ] {
            trace.record_access(id, from);
        }
        let base = SimConfig::default();
        let rung = Rung {
            granularity: Granularity::Superblock,
            capacity: 400,
            shards: 2,
        };
        let mut stream = Vec::new();
        let mut observer = |_: usize, ev: CacheEvent| {
            if !matches!(ev, CacheEvent::Hit { .. } | CacheEvent::Miss { .. }) {
                stream.push(ev);
            }
        };
        let got = simulate_rungs(&trace, &[rung], &base, &mut observer).unwrap();

        let mut sharded = ShardedCache::with_granularity(rung.granularity, 400, 2).unwrap();
        let mut want = EventBuffer::new();
        for &cce_dbt::TraceEvent::Access { id, direct_from } in &trace.events {
            sharded
                .transition(id, 60, direct_from, true, &mut want)
                .unwrap();
        }
        assert_eq!(stream, want.events());
        assert!(stream
            .iter()
            .any(|e| matches!(e, CacheEvent::Unlinked { id, links: 2, .. } if *id == b)));
        assert_eq!(
            stream
                .iter()
                .filter(|e| matches!(e, CacheEvent::Unlinked { .. }))
                .count(),
            1,
            "the cross-shard fan-in merges into b's one unlink"
        );
        assert!(stream.iter().any(|e| matches!(
            e,
            CacheEvent::EvictionEnd {
                bytes: 60,
                links_dropped_free: 1,
                ..
            }
        )));
        let oracle = Replay::new(&trace)
            .config(&base)
            .granularity(rung.granularity)
            .capacity(400)
            .shards(2)
            .run()
            .unwrap()
            .into_solo();
        assert_eq!(got, [oracle]);
        assert_eq!(got[0].stats.unlink_operations, 1);
        assert_eq!(got[0].stats.links_unlinked, 2);
    }

    #[test]
    fn sharded_geometry_errors_match_the_sharded_cache() {
        use cce_core::ShardedCache;
        let trace = trace();
        for (granularity, capacity, shards, too_many_units) in [
            // Total below the shard count: the last shard gets 0 bytes.
            (Granularity::Flush, 3, 4, false),
            (Granularity::Superblock, 7, 8, false),
            // Per-shard slice below the unit count (10 bytes over 4
            // shards leave 3, 3, 2, 2: three units fit only where the
            // remainder byte landed).
            (Granularity::units(8), 20, 4, true),
            (Granularity::units(3), 10, 4, true),
        ] {
            let rung = Rung {
                granularity,
                capacity,
                shards,
            };
            let want = ShardedCache::with_granularity(granularity, capacity, shards).unwrap_err();
            assert_eq!(
                matches!(want, CacheError::TooManyUnits { .. }),
                too_many_units,
                "{want:?}"
            );
            let got = simulate_rungs(&trace, &[rung], &SimConfig::default(), &mut NoObserver);
            assert_eq!(got.unwrap_err(), SimError::Cache(want), "{rung:?}");
        }
    }

    #[test]
    fn empty_trace_is_reported_like_the_naive_engine() {
        let empty = cce_dbt::TraceLog::new("empty");
        let cells = [LadderCell {
            granularity: Granularity::Superblock,
            capacity: 4096,
        }];
        assert_eq!(
            simulate_ladder_source(&empty, &cells, &SimConfig::default()).unwrap_err(),
            SimError::EmptyTrace
        );
    }
}
