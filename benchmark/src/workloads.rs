//! The eight workloads: inputs from a seed, one measured pass, and the
//! reference every pass is compared against.
//!
//! A workload is set up once (inputs generated from the seed, encoded,
//! planned; the reference result computed over a *different* path of the
//! system than the one the pass takes) and then asked for passes. Every
//! pass re-does the whole job against fresh caches and checks its output
//! against the reference.

use crate::trace::Tracer;
use cce_core::{CacheStats, Granularity};
use cce_dbt::trace_bin::save_binary;
use cce_dbt::{SharedTrace, TraceLog, TraceReader};
use cce_sim::pressure::{capacity_for_pressure, TraceSizing};
use cce_sim::serve::{offline_baseline, ServePlan, ServeTransport};
use cce_sim::sweep::SweepPoint;
use cce_sim::{
    run_serve, simulate_concurrent, ConcurrentSimConfig, Engine, EventSource, OverheadModel,
    Replay, ServeConfig, SimConfig, SimResult,
};
use cce_workloads::catalog;
use std::io::Cursor;
use std::sync::Arc;

/// Which workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ReplayEvict,
    ReplayHit,
    StreamIngest,
    GridLadder,
    GridSharded,
    TenantsConcurrent,
    ServePaced,
    ServeOverload,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 8] = [
        Kind::ReplayEvict,
        Kind::ReplayHit,
        Kind::StreamIngest,
        Kind::GridLadder,
        Kind::GridSharded,
        Kind::TenantsConcurrent,
        Kind::ServePaced,
        Kind::ServeOverload,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::ReplayEvict => "replay_evict",
            Kind::ReplayHit => "replay_hit",
            Kind::StreamIngest => "stream_ingest",
            Kind::GridLadder => "grid_ladder",
            Kind::GridSharded => "grid_sharded",
            Kind::TenantsConcurrent => "tenants_concurrent",
            Kind::ServePaced => "serve_paced",
            Kind::ServeOverload => "serve_overload",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// How big and how long.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    /// `--smoke`: traces at scale 0.05 and quarter-second serve runs.
    pub smoke: bool,
    /// Wall budget of one round of passes, in seconds: passes repeat
    /// until it is spent.
    pub seconds: f64,
    /// Run exactly this many passes instead.
    pub passes: Option<usize>,
}

impl Sizing {
    /// Multiplies every trace's scale.
    pub fn scale(&self) -> f64 {
        if self.smoke {
            0.05
        } else {
            1.0
        }
    }

    /// Length of one serve run. A paced run needs some 450 requests
    /// for its Poisson plan to offer the same rate under every seed;
    /// an overloaded run needs its first and last ~35 ms (the queue
    /// filling, then draining) to be a small part of it.
    fn serve_run_seconds(&self, overload: bool) -> f64 {
        match (self.smoke, overload) {
            (true, _) => 0.25,
            (false, false) => 0.9,
            (false, true) => 0.67,
        }
    }
}

/// Threads a workload may use beyond its first: `min(nproc, 2)`.
pub fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

// ---------------------------------------------------------------------
// Simulated (not host) quantities, summed over a pass.
// ---------------------------------------------------------------------

/// Simulated totals over every cell, tenant or run of one pass, plus a
/// digest of every result field. A speed-only change must leave all of
/// it bit-identical.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimTotals {
    pub accesses: u64,
    pub misses: u64,
    pub evictions: u64,
    pub bytes_evicted: u64,
    pub unlink_ops: u64,
    pub links_unlinked: u64,
    /// Σ Eq. 2 / 3 / 4, in instructions.
    pub eq2: f64,
    pub eq3: f64,
    pub eq4: f64,
    digest: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl SimTotals {
    fn mix_bytes(&mut self, bytes: &[u8]) {
        if self.digest == 0 {
            self.digest = FNV_OFFSET;
        }
        for &b in bytes {
            self.digest = (self.digest ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    fn mix(&mut self, word: u64) {
        self.mix_bytes(&word.to_le_bytes());
    }

    fn add_counts(&mut self, s: &CacheStats) {
        self.accesses += s.accesses;
        self.misses += s.misses;
        self.evictions += s.eviction_invocations;
        self.bytes_evicted += s.bytes_evicted;
        self.unlink_ops += s.unlink_operations;
        self.links_unlinked += s.links_unlinked;
        for word in [
            s.accesses,
            s.hits,
            s.misses,
            s.cold_misses,
            s.capacity_misses,
            s.insertions,
            s.bytes_inserted,
            s.padding_bytes,
            s.eviction_invocations,
            s.blocks_evicted,
            s.bytes_evicted,
            s.links_created,
            s.inter_unit_links_created,
            s.unlink_operations,
            s.links_unlinked,
            s.links_dropped_free,
            s.high_water_bytes,
            s.high_water_blocks,
        ] {
            self.mix(word);
        }
    }

    /// Adds one replay result, every field of it.
    fn add_result(&mut self, r: &SimResult) {
        self.add_counts(&r.stats);
        self.eq2 += r.eviction_overhead;
        self.eq3 += r.miss_overhead;
        self.eq4 += r.unlink_overhead;
        self.mix_bytes(r.name.as_bytes());
        self.mix_bytes(r.granularity_label.as_bytes());
        for word in [
            r.capacity,
            r.miss_overhead.to_bits(),
            r.eviction_overhead.to_bits(),
            r.unlink_overhead.to_bits(),
            r.uncacheable,
            r.census_intra_links,
            r.census_inter_links,
        ] {
            self.mix(word);
        }
    }

    /// Adds one serve tenant's statistics. A `ServeReport` carries no
    /// overhead sums, so Eq. 2–4 are charged here from the counters;
    /// the models are linear, which makes that exact as long as every
    /// missed block was insertable.
    fn add_stats(&mut self, s: &CacheStats, model: &OverheadModel) {
        self.add_counts(s);
        self.eq2 += model.eviction_cost_total(s.eviction_invocations, s.bytes_evicted);
        self.eq3 +=
            model.miss.intercept * s.misses as f64 + model.miss.slope * s.bytes_inserted as f64;
        self.eq4 += model.unlink_cost_total(s.unlink_operations, s.links_unlinked);
    }

    /// Low 48 bits of the digest: exact in an `f64`.
    pub fn digest48(&self) -> u64 {
        self.digest & ((1 << 48) - 1)
    }
}

fn totals_of<'a>(results: impl IntoIterator<Item = &'a SimResult>) -> SimTotals {
    let mut totals = SimTotals::default();
    for r in results {
        totals.add_result(r);
    }
    totals
}

// ---------------------------------------------------------------------
// One pass.
// ---------------------------------------------------------------------

/// What a serve run adds to a pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeSample {
    pub p50_us: f64,
    pub p95_us: f64,
    pub p99_us: f64,
    pub max_us: f64,
    pub queue_high_water: u64,
    /// Run wall time minus the plan's last arrival offset: how late the
    /// generator ran plus how long the queue took to drain.
    pub lag_ms: f64,
}

/// The outcome of one measured pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Pass {
    /// Events the pass was asked to process (× cells for a grid).
    pub offered: u64,
    /// Events it did process: `offered` unless a serve run shed some or
    /// a batch pass's result was wrong.
    pub applied: u64,
    /// Outputs checked, and how many were wrong. Batch workloads check
    /// one result per pass; serve workloads account for every offered
    /// event.
    pub attempted: u64,
    pub failed: u64,
    pub sim: SimTotals,
    pub serve: Option<ServeSample>,
}

impl Pass {
    /// A pass whose result is wrong has processed nothing.
    fn batch(events: u64, ok: bool, sim: SimTotals) -> Pass {
        Pass {
            offered: events,
            applied: if ok { events } else { 0 },
            attempted: 1,
            failed: u64::from(!ok),
            sim,
            serve: None,
        }
    }
}

/// A set-up workload.
pub trait Workload {
    /// Runs the job once against fresh caches and checks its output.
    ///
    /// # Errors
    ///
    /// A message when the system under test returned an error — which
    /// no workload is built to provoke.
    fn pass(&mut self, t: &mut Tracer) -> Result<Pass, String>;
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

// ---------------------------------------------------------------------
// Inputs.
// ---------------------------------------------------------------------

/// Generates `name`'s catalog trace at `scale` from `seed`.
///
/// # Errors
///
/// If the catalog has no such benchmark.
fn gen_trace(t: &mut Tracer, name: &str, scale: f64, seed: u64) -> Result<TraceLog, String> {
    let model = catalog::by_name(name).ok_or_else(|| format!("catalog has no `{name}`"))?;
    let expected = model.scaled_accesses(scale);
    Ok(t.span("workloads.trace", expected, |_| model.trace(scale, seed)))
}

/// The replay trace: gcc, the catalog's largest SPEC model (8751
/// superblocks, 1.05 M events at scale 1).
///
/// # Errors
///
/// As [`gen_trace`].
pub fn gcc_trace(t: &mut Tracer, seed: u64, sizing: Sizing) -> Result<TraceLog, String> {
    gen_trace(t, "gcc", sizing.scale(), seed)
}

/// The trace the per-cell fallback grid runs on, a tenth of the replay
/// trace's length: 50 cells cost 50 replays there. Not the catalog's
/// gzip at full scale, which is as long: with its 301 superblocks the
/// seed alone moves the grid's rate between 6.3 and 10.8 Mev/s.
///
/// # Errors
///
/// As [`gen_trace`].
pub fn sharded_grid_trace(t: &mut Tracer, seed: u64, sizing: Sizing) -> Result<TraceLog, String> {
    gen_trace(t, "gcc", 0.1 * sizing.scale(), seed)
}

/// Four unequal tenants at half scale (~1.0 M events together).
///
/// # Errors
///
/// As [`gen_trace`].
pub fn tenant_traces(
    t: &mut Tracer,
    seed: u64,
    sizing: Sizing,
) -> Result<Vec<SharedTrace>, String> {
    ["gzip", "crafty", "gcc", "perlbmk"]
        .iter()
        .zip(seed..)
        .map(|(name, s)| {
            Ok(SharedTrace::from_log(&gen_trace(
                t,
                name,
                0.5 * sizing.scale(),
                s,
            )?))
        })
        .collect()
}

/// The registry serve plans draw their superblocks from.
///
/// # Errors
///
/// As [`gen_trace`].
fn serve_registry(t: &mut Tracer, seed: u64, sizing: Sizing) -> Result<TraceLog, String> {
    gen_trace(t, "gzip", sizing.scale(), seed)
}

/// One (granularity, pressure, chaining) point of a single-cell replay.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    pub granularity: Granularity,
    pub pressure: u32,
    pub chaining: bool,
}

impl Cell {
    /// Fine-grained FIFO under high pressure: org insert/evict and link
    /// unlinking do most of the work.
    pub fn evict() -> Cell {
        Cell {
            granularity: Granularity::Superblock,
            pressure: 10,
            chaining: true,
        }
    }

    /// Everything fits: one eviction, cold misses only.
    pub fn hit() -> Cell {
        Cell {
            granularity: Granularity::units(8),
            pressure: 1,
            chaining: true,
        }
    }

    /// The cheapest cache configuration, so ingest is the largest share
    /// of the pass it can ever be.
    pub fn ingest() -> Cell {
        Cell {
            granularity: Granularity::Flush,
            pressure: 2,
            chaining: false,
        }
    }

    pub fn sim_config(&self) -> SimConfig {
        SimConfig {
            chaining: self.chaining,
            ..SimConfig::default()
        }
    }

    pub fn apply<'a>(&self, replay: Replay<'a>) -> Replay<'a> {
        replay
            .config(&self.sim_config())
            .granularity(self.granularity)
            .pressure(self.pressure)
    }
}

/// The 50-cell figure grid: ten granularities by five pressures.
pub fn grid_axes() -> (Vec<Granularity>, [u32; 5]) {
    (Granularity::spectrum(8), [2, 4, 6, 8, 10])
}

/// Cells in that grid.
pub fn grid_cells() -> u64 {
    let (granularities, pressures) = grid_axes();
    (granularities.len() * pressures.len()) as u64
}

/// The serve configuration for one run.
///
/// `overload` offers about twice what one worker sustains: 3.8 Mev/s in
/// 64-event requests, so the per-request path (queue, wake-up, shed) is
/// as large a share as it gets, against a 65 536-event queue.
///
/// Otherwise about a quarter: 0.5 Mev/s in 1024-event requests, so that
/// applying a request, not waking the worker's thread, is most of its
/// latency (at 64 events the host's wake-up time alone moved the median
/// between 65 and 125 us from one minute to the next). The queue is
/// four times as deep there, half a second of traffic, so that only the
/// server falling behind sheds, not the host stalling a thread.
fn serve_config(seed: u64, sizing: Sizing, overload: bool) -> ServeConfig {
    let (rps, batch_events, queue_events) = if overload {
        (60_000.0, 64, 1 << 16)
    } else {
        (500.0, 1024, 1 << 18)
    };
    ServeConfig {
        tenants: 4,
        threads: 1,
        shards: 4,
        rps,
        duration_secs: sizing.serve_run_seconds(overload),
        batch_events,
        skew: 0.8,
        seed,
        queue_events,
        transport: ServeTransport::Pipe,
        ..ServeConfig::default()
    }
}

/// The tenants' shared configuration: every tenant gets the pressure-4
/// capacity of the largest, over four shards, closed loop, no arbiter.
pub fn tenants_config(traces: &[SharedTrace], threads: usize) -> ConcurrentSimConfig {
    let capacity = traces
        .iter()
        .map(|tr| capacity_for_pressure(TraceSizing::of_source(tr).max_cache_bytes, 4))
        .max()
        .unwrap_or(1);
    ConcurrentSimConfig {
        sim: SimConfig {
            capacity,
            ..SimConfig::default()
        },
        shards: 4,
        threads,
        ..ConcurrentSimConfig::default()
    }
}

/// Runs the 50-cell grid over `traces`.
///
/// # Errors
///
/// Propagates the sweep's error.
pub fn run_grid(
    traces: &[TraceLog],
    shards: u32,
    jobs: usize,
    engine: Engine,
) -> Result<Vec<SweepPoint>, String> {
    let (granularities, pressures) = grid_axes();
    Replay::matrix(traces)
        .granularities(&granularities)
        .pressures(&pressures)
        .shard_counts(&[shards])
        .engine(engine)
        .jobs(jobs)
        .run()
        .map_err(err)
}

// ---------------------------------------------------------------------
// replay_evict, replay_hit.
// ---------------------------------------------------------------------

struct ReplayWorkload {
    trace: TraceLog,
    cell: Cell,
    reference: SimResult,
}

impl Workload for ReplayWorkload {
    fn pass(&mut self, t: &mut Tracer) -> Result<Pass, String> {
        let events = self.trace.event_count();
        let result = t
            .span("sim.Replay::run", events, |_| {
                self.cell.apply(Replay::new(&self.trace)).run()
            })
            .map_err(err)?
            .into_solo();
        Ok(Pass::batch(
            events,
            result == self.reference,
            totals_of([&result]),
        ))
    }
}

fn setup_replay(
    t: &mut Tracer,
    seed: u64,
    sizing: Sizing,
    cell: Cell,
) -> Result<ReplayWorkload, String> {
    let trace = gcc_trace(t, seed, sizing)?;
    // The reference goes in through the shared, chunked source.
    let reference = t.span("reference", trace.event_count(), |_| {
        let shared = SharedTrace::from_log(&trace);
        cell.apply(Replay::new(&shared)).run().map_err(err)
    })?;
    Ok(ReplayWorkload {
        trace,
        cell,
        reference: reference.into_solo(),
    })
}

// ---------------------------------------------------------------------
// stream_ingest.
// ---------------------------------------------------------------------

struct StreamWorkload {
    bytes: Arc<[u8]>,
    events: u64,
    cell: Cell,
    reference: SimResult,
}

/// Encodes `trace` in the binary format.
///
/// # Errors
///
/// Propagates the encoder's error.
pub fn encode_trace(t: &mut Tracer, trace: &TraceLog) -> Result<Arc<[u8]>, String> {
    let mut bytes = Vec::new();
    t.span("trace_bin.save_binary", trace.event_count(), |_| {
        save_binary(trace, &mut bytes)
    })
    .map_err(err)?;
    Ok(bytes.into())
}

/// Streams `bytes` through a `TraceReader` into one replay at `cell`;
/// returns the result and the reader's buffered-event high-water mark.
///
/// # Errors
///
/// Propagates decode and replay errors.
pub fn stream_replay(
    t: &mut Tracer,
    bytes: &Arc<[u8]>,
    events: u64,
    cell: Cell,
) -> Result<(SimResult, usize), String> {
    let mut reader = t
        .span("trace_bin.TraceReader::new", 0, |_| {
            TraceReader::new(Cursor::new(Arc::clone(bytes)))
        })
        .map_err(err)?;
    let result = t
        .span("sim.Replay::stream.run", events, |_| {
            cell.apply(Replay::stream(&mut reader)).run()
        })
        .map_err(err)?
        .into_solo();
    Ok((result, reader.high_water_events()))
}

impl Workload for StreamWorkload {
    fn pass(&mut self, t: &mut Tracer) -> Result<Pass, String> {
        let (result, _) = stream_replay(t, &self.bytes, self.events, self.cell)?;
        Ok(Pass::batch(
            self.events,
            result == self.reference,
            totals_of([&result]),
        ))
    }
}

fn setup_stream(t: &mut Tracer, seed: u64, sizing: Sizing) -> Result<StreamWorkload, String> {
    let trace = gcc_trace(t, seed, sizing)?;
    let cell = Cell::ingest();
    let bytes = encode_trace(t, &trace)?;
    let reference = t
        .span("reference", trace.event_count(), |_| {
            cell.apply(Replay::new(&trace)).run()
        })
        .map_err(err)?
        .into_solo();
    Ok(StreamWorkload {
        bytes,
        events: trace.event_count(),
        cell,
        reference,
    })
}

// ---------------------------------------------------------------------
// grid_ladder, grid_sharded.
// ---------------------------------------------------------------------

/// Cells of the 50 whose ladder result is checked against the naive
/// engine: both ends and three interior points, every pressure once.
const LADDER_SAMPLE: [usize; 5] = [0, 13, 27, 36, 49];

struct GridWorkload {
    traces: Vec<TraceLog>,
    shards: u32,
    jobs: usize,
    /// `(plan index, expected result)`; all 50 for the sharded grid.
    reference: Vec<(usize, SimResult)>,
}

impl Workload for GridWorkload {
    fn pass(&mut self, t: &mut Tracer) -> Result<Pass, String> {
        let cells = grid_cells();
        let cell_events = self.traces[0].event_count() * cells;
        let points = t.span("sim.ReplayMatrix::run", cell_events, |_| {
            run_grid(&self.traces, self.shards, self.jobs, Engine::Ladder)
        })?;
        let ok = points.len() as u64 == cells
            && self
                .reference
                .iter()
                .all(|(i, want)| points.get(*i).is_some_and(|p| p.result == *want));
        Ok(Pass::batch(
            cell_events,
            ok,
            totals_of(points.iter().map(|p| &p.result)),
        ))
    }
}

fn setup_grid_ladder(t: &mut Tracer, seed: u64, sizing: Sizing) -> Result<GridWorkload, String> {
    let traces = vec![gcc_trace(t, seed, sizing)?];
    let (granularities, pressures) = grid_axes();
    let reference = t.span("reference", 0, |_| {
        LADDER_SAMPLE
            .iter()
            .map(|&i| {
                // Plan order is pressure-major, granularity-minor.
                let g = granularities[i % granularities.len()];
                let p = pressures[i / granularities.len()];
                let naive = Replay::matrix(&traces)
                    .granularities(&[g])
                    .pressures(&[p])
                    .engine(Engine::Naive)
                    .run()
                    .map_err(err)?;
                let point = naive
                    .into_iter()
                    .next()
                    .ok_or("naive cell produced nothing")?;
                Ok((i, point.result))
            })
            .collect::<Result<Vec<_>, String>>()
    })?;
    Ok(GridWorkload {
        traces,
        shards: 1,
        jobs: 1,
        reference,
    })
}

fn setup_grid_sharded(t: &mut Tracer, seed: u64, sizing: Sizing) -> Result<GridWorkload, String> {
    let traces = vec![sharded_grid_trace(t, seed, sizing)?];
    let reference = t.span("reference", 0, |_| run_grid(&traces, 4, 1, Engine::Ladder))?;
    Ok(GridWorkload {
        traces,
        shards: 4,
        jobs: parallelism(),
        reference: reference
            .into_iter()
            .map(|p| p.result)
            .enumerate()
            .collect(),
    })
}

// ---------------------------------------------------------------------
// tenants_concurrent.
// ---------------------------------------------------------------------

struct TenantsWorkload {
    traces: Vec<SharedTrace>,
    cfg: ConcurrentSimConfig,
    reference: Vec<SimResult>,
}

impl Workload for TenantsWorkload {
    fn pass(&mut self, t: &mut Tracer) -> Result<Pass, String> {
        let events = self.traces.iter().map(|tr| tr.event_count).sum();
        let results = t
            .span("sim.simulate_concurrent", events, |_| {
                simulate_concurrent(&self.traces, &self.cfg)
            })
            .map_err(err)?;
        Ok(Pass::batch(
            events,
            results == self.reference,
            totals_of(&results),
        ))
    }
}

fn setup_tenants(t: &mut Tracer, seed: u64, sizing: Sizing) -> Result<TenantsWorkload, String> {
    let traces = tenant_traces(t, seed, sizing)?;
    let cfg = tenants_config(&traces, parallelism());
    let reference = t.span("reference", 0, |_| {
        traces
            .iter()
            .map(|tr| {
                Replay::new(tr)
                    .config(&cfg.sim)
                    .shards(cfg.shards)
                    .run()
                    .map(cce_sim::ReplayReport::into_solo)
                    .map_err(err)
            })
            .collect::<Result<Vec<_>, String>>()
    })?;
    Ok(TenantsWorkload {
        traces,
        cfg,
        reference,
    })
}

// ---------------------------------------------------------------------
// serve_paced, serve_overload.
// ---------------------------------------------------------------------

pub struct ServeWorkload {
    pub plan: ServePlan,
    pub cfg: ServeConfig,
    /// Per-tenant statistics of the offline replay of the plan; a run
    /// that sheds nothing must reproduce them exactly. `None` under
    /// overload, where timing decides what is shed.
    baseline: Option<Vec<CacheStats>>,
}

/// Builds the traffic plan for `cfg` over `registry`.
///
/// # Errors
///
/// Propagates the plan's configuration error.
fn build_plan(t: &mut Tracer, registry: &TraceLog, cfg: &ServeConfig) -> Result<ServePlan, String> {
    let events = (cfg.rps * cfg.duration_secs).round() as u64 * cfg.batch_events as u64;
    t.span("serve.ServePlan::build", events, |_| {
        ServePlan::build(&registry.superblocks, &registry.name, cfg)
    })
    .map_err(err)
}

impl Workload for ServeWorkload {
    fn pass(&mut self, t: &mut Tracer) -> Result<Pass, String> {
        let report = t
            .span("sim.run_serve", self.plan.event_count, |_| {
                run_serve(&self.plan, &self.cfg)
            })
            .map_err(err)?;
        let offered = report.offered_events;
        let accounted = report.applied_events + report.dropped_events;
        let clean = !report.disconnected
            && report.rejected_frames == 0
            && report.delivered_events == report.applied_events
            && accounted == offered;
        if !clean || (self.baseline.is_some() && report.dropped_events > 0) {
            eprintln!(
                "serve run: offered {offered}, applied {}, shed {} in {} batches, rejected {} frames, \
                 disconnected {}, queue high-water {}",
                report.applied_events,
                report.dropped_events,
                report.dropped_requests,
                report.rejected_frames,
                report.disconnected,
                report.queue_high_water
            );
        }
        let failed = match &self.baseline {
            // Nothing may shed, and every tenant must end where the
            // offline replay of its stream ends.
            Some(baseline) => {
                let same = report
                    .per_tenant
                    .iter()
                    .map(|p| &p.stats)
                    .eq(baseline.iter());
                if clean && same {
                    offered - report.applied_events
                } else {
                    offered
                }
            }
            // Shedding is the designed response to overload; only an
            // event that is neither applied nor counted as shed is lost.
            None if clean => 0,
            None => offered.saturating_sub(accounted).max(1),
        };
        let model = OverheadModel::cgo2004();
        let mut sim = SimTotals::default();
        for tenant in &report.per_tenant {
            sim.add_stats(&tenant.stats, &model);
        }
        let last_arrival = self.plan.requests.last().map_or(0, |r| r.at_nanos);
        let us = |nanos: u64| nanos as f64 / 1e3;
        Ok(Pass {
            offered,
            applied: report.applied_events,
            attempted: offered,
            failed,
            sim,
            serve: Some(ServeSample {
                p50_us: us(report.latency.p50_nanos),
                p95_us: us(report.latency.p95_nanos),
                p99_us: us(report.latency.p99_nanos),
                max_us: us(report.latency.max_nanos),
                queue_high_water: report.queue_high_water,
                lag_ms: (report.wall_secs - last_arrival as f64 / 1e9) * 1e3,
            }),
        })
    }
}

/// Sets up a serve workload: `overload` offers about twice what one
/// worker sustains, otherwise about a quarter.
///
/// # Errors
///
/// Propagates plan and baseline errors.
pub fn setup_serve(
    t: &mut Tracer,
    seed: u64,
    sizing: Sizing,
    overload: bool,
) -> Result<ServeWorkload, String> {
    let cfg = serve_config(seed, sizing, overload);
    let registry = serve_registry(t, seed, sizing)?;
    let plan = build_plan(t, &registry, &cfg)?;
    let baseline = if overload {
        None
    } else {
        Some(
            t.span("serve.offline_baseline", plan.event_count, |_| {
                offline_baseline(&plan, &cfg)
            })
            .map_err(err)?,
        )
    };
    Ok(ServeWorkload {
        plan,
        cfg,
        baseline,
    })
}

/// Sets up `kind` from `seed`.
///
/// # Errors
///
/// Propagates input-generation and reference errors.
pub fn setup(
    kind: Kind,
    t: &mut Tracer,
    seed: u64,
    sizing: Sizing,
) -> Result<Box<dyn Workload>, String> {
    Ok(match kind {
        Kind::ReplayEvict => Box::new(setup_replay(t, seed, sizing, Cell::evict())?),
        Kind::ReplayHit => Box::new(setup_replay(t, seed, sizing, Cell::hit())?),
        Kind::StreamIngest => Box::new(setup_stream(t, seed, sizing)?),
        Kind::GridLadder => Box::new(setup_grid_ladder(t, seed, sizing)?),
        Kind::GridSharded => Box::new(setup_grid_sharded(t, seed, sizing)?),
        Kind::TenantsConcurrent => Box::new(setup_tenants(t, seed, sizing)?),
        Kind::ServePaced => Box::new(setup_serve(t, seed, sizing, false)?),
        Kind::ServeOverload => Box::new(setup_serve(t, seed, sizing, true)?),
    })
}
