//! Per-layer probes: every layer of both pipelines timed from outside,
//! by calling the same public functions the pipelines call.
//!
//! A probe is a span around one such call; a layer's cost is a span's
//! time per event, or the difference of two cumulative prefixes of the
//! per-event loop `SimDriver::feed` runs (org only → + link bookkeeping
//! → + census → the real driver), so the layers of a replay sum to the
//! whole by construction.

use crate::trace::Tracer;
use crate::workloads::{
    encode_trace, gcc_trace, grid_axes, grid_cells, run_grid, setup_serve, sharded_grid_trace,
    stream_replay, tenant_traces, tenants_config, Cell, Sizing, Workload,
};
use cce_core::{
    CacheError, CacheEvent, CacheSession, CodeCache, ConcurrentSession, EventSink, InsertRequest,
    NullSink, ShardedCache, TenantConfig, TenantId,
};
use cce_dbt::trace_bin::load_binary;
use cce_dbt::{FrameStream, StreamFrame, StreamWriter, TraceEvent, TraceLog, TraceReader};
use cce_sim::ladder::LadderCell;
use cce_sim::pressure::{cell_config, TraceSizing};
use cce_sim::serve::offline_baseline;
use cce_sim::{
    simulate_concurrent, simulate_ladder_source, Engine, EventSource, Replay, SimConfig, SimDriver,
};
use std::hint::black_box;
use std::io::Cursor;
use std::sync::Arc;

/// A derived layer metric: `None` with a reason when the host cannot
/// measure it.
pub type Derived = (&'static str, Result<f64, &'static str>);

/// Why scaling ratios are withheld on a one-thread host.
const SINGLE_CORE: &str = "available_parallelism < 2: no second thread to scale onto";

/// Repetitions of each probe that is subtracted from another; the
/// fastest is reported, since host noise only adds time.
const PREFIX_REPS: usize = 3;

/// How much of `SimDriver::feed`'s per-event loop a prefix runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Prefix {
    /// `access_or_insert` only: org lookup, insert and eviction.
    Org,
    /// Plus the residency checks and `link` of the chaining step, and
    /// the unlink work evictions then do.
    Links,
    /// Plus the link-graph census every N/64 events.
    Census,
}

/// Counts events instead of discarding them.
struct CountSink(u64);

impl EventSink for CountSink {
    fn event(&mut self, _event: CacheEvent) {
        self.0 += 1;
    }
}

/// Drives `session` exactly as `SimDriver::feed` does, up to `upto`,
/// with sizes resolved beforehand and no overhead charged.
fn drive_prefix<S: CacheSession>(
    session: &mut S,
    events: &[TraceEvent],
    sizes: &[u32],
    upto: Prefix,
    sink: &mut dyn EventSink,
) -> Result<(), String> {
    let census_every = (events.len() / 64).max(1);
    for (i, (ev, &size)) in events.iter().zip(sizes).enumerate() {
        let TraceEvent::Access { id, direct_from } = *ev;
        let partner = if upto >= Prefix::Links {
            direct_from.filter(|f| session.is_resident(*f))
        } else {
            None
        };
        match session.access_or_insert(InsertRequest::new(id, size).with_hint(partner), sink) {
            Ok(_) | Err(CacheError::BlockTooLarge { .. }) => {}
            Err(e) => return Err(e.to_string()),
        }
        if upto >= Prefix::Links {
            if let Some(from) = direct_from {
                if session.is_resident(from) && session.is_resident(id) {
                    session.link(from, id).map_err(|e| e.to_string())?;
                }
            }
        }
        if upto >= Prefix::Census && i % census_every == census_every - 1 {
            black_box(session.link_census());
        }
    }
    Ok(())
}

/// Everything the cache-side probes share: the trace and each event's
/// size, looked up once.
struct ReplayInput<'a> {
    trace: &'a TraceLog,
    sizes: Vec<u32>,
    sizing: TraceSizing,
}

impl<'a> ReplayInput<'a> {
    fn new(trace: &'a TraceLog) -> Result<ReplayInput<'a>, String> {
        let index = trace.index();
        let sizes = trace
            .events
            .iter()
            .map(|ev| {
                let TraceEvent::Access { id, .. } = *ev;
                index
                    .position(id)
                    .map(|p| trace.superblocks[p].size)
                    .ok_or_else(|| format!("trace mentions unregistered superblock {id}"))
            })
            .collect::<Result<_, _>>()?;
        Ok(ReplayInput {
            trace,
            sizes,
            sizing: TraceSizing::of(trace),
        })
    }

    fn events(&self) -> u64 {
        self.trace.event_count()
    }

    fn config(&self, cell: Cell, shards: u32) -> SimConfig {
        cell_config(
            self.sizing,
            cell.granularity,
            cell.pressure,
            shards,
            &cell.sim_config(),
        )
    }

    fn bare_cache(&self, cell: Cell) -> Result<CodeCache, String> {
        let cfg = self.config(cell, 1);
        CodeCache::with_granularity(cfg.granularity, cfg.capacity).map_err(|e| e.to_string())
    }

    /// One prefix pass over a fresh bare cache, as a span.
    fn prefix(
        &self,
        t: &mut Tracer,
        name: &'static str,
        cell: Cell,
        upto: Prefix,
        counting: bool,
    ) -> Result<(), String> {
        let mut cache = self.bare_cache(cell)?;
        t.span(name, self.events(), |_| {
            if counting {
                let mut sink = CountSink(0);
                let done =
                    drive_prefix(&mut cache, &self.trace.events, &self.sizes, upto, &mut sink);
                black_box(sink.0);
                done
            } else {
                drive_prefix(
                    &mut cache,
                    &self.trace.events,
                    &self.sizes,
                    upto,
                    &mut NullSink,
                )
            }
        })
    }

    /// The real `SimDriver` over `session`, as a span: size lookup and
    /// Eq. 2–4 charging on top of the census prefix.
    fn driver<S: CacheSession>(
        &self,
        t: &mut Tracer,
        name: &'static str,
        session: S,
        cfg: &SimConfig,
    ) -> Result<(), String> {
        t.span(name, self.events(), |_| {
            let mut driver = SimDriver::new(
                &self.trace.name,
                &self.trace.superblocks,
                self.events(),
                session,
                cfg.granularity.label(),
                cfg,
            )?;
            driver.feed(&self.trace.events)?;
            driver.finish().map(|r| {
                black_box(r);
            })
        })
        .map_err(|e| e.to_string())
    }
}

/// Fastest, over the spans called `name`, of seconds per event.
fn per_event(t: &Tracer, name: &str) -> f64 {
    t.spans()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.nanos() as f64 / 1e9 / s.events.max(1) as f64)
        .fold(f64::NAN, f64::min)
}

fn ns(seconds: f64) -> f64 {
    seconds * 1e9
}

/// The cache-side prefix probes under one cell; returns the derived
/// layer metrics for that cell's suffix and the name of the largest of
/// its four layers.
fn probe_cell(
    t: &mut Tracer,
    input: &ReplayInput<'_>,
    cell: Cell,
    names: &CellNames,
) -> Result<(Vec<Derived>, &'static str), String> {
    let cfg = input.config(cell, 1);
    for _ in 0..PREFIX_REPS {
        input.prefix(t, names.org, cell, Prefix::Org, false)?;
        input.prefix(t, names.links, cell, Prefix::Links, false)?;
        input.prefix(t, names.census, cell, Prefix::Census, false)?;
        input.driver(t, names.driver, input.bare_cache(cell)?, &cfg)?;
        t.span(names.replay, input.events(), |_| {
            cell.apply(Replay::new(input.trace)).run().map(black_box)
        })
        .map_err(|e| e.to_string())?;
        if let Some(sink) = names.sink {
            input.prefix(t, sink, cell, Prefix::Census, true)?;
        }
    }
    let org = per_event(t, names.org);
    let links = per_event(t, names.links);
    let census = per_event(t, names.census);
    let driver = per_event(t, names.driver);
    let mut out: Vec<Derived> = vec![
        (names.m_org, Ok(ns(org))),
        (names.m_links, Ok(ns(links - org))),
        (names.m_driver, Ok(ns(driver - census))),
        // The four layers telescope to the driver prefix; the ratio says
        // how much of a real `Replay::run` pass that explains.
        (names.m_sum, Ok(driver / per_event(t, names.replay))),
    ];
    if let Some(m) = names.m_census {
        out.push((m, Ok(ns(census - links))));
    }
    if let (Some(span), Some(m)) = (names.sink, names.m_sink) {
        out.push((m, Ok(ns(per_event(t, span) - census))));
    }
    let layers = [
        ("org", org),
        ("links", links - org),
        ("census", census - links),
        ("simulator", driver - census),
    ];
    let dominant = layers
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map_or("org", |l| l.0);
    Ok((out, dominant))
}

/// Span and metric names of one cell's probes.
struct CellNames {
    org: &'static str,
    links: &'static str,
    census: &'static str,
    driver: &'static str,
    replay: &'static str,
    sink: Option<&'static str>,
    m_org: &'static str,
    m_links: &'static str,
    m_census: Option<&'static str>,
    m_driver: &'static str,
    m_sink: Option<&'static str>,
    m_sum: &'static str,
}

const EVICT_NAMES: CellNames = CellNames {
    org: "probe.evict.prefix.org",
    links: "probe.evict.prefix.links",
    census: "probe.evict.prefix.census",
    driver: "probe.evict.SimDriver",
    replay: "probe.evict.Replay::run",
    sink: Some("probe.evict.prefix.census+sink"),
    m_org: "org.access_ns_per_event.evict",
    m_links: "links.link_ns_per_event.evict",
    m_census: Some("links.census_ns_per_event"),
    m_driver: "simulator.driver_ns_per_event.evict",
    m_sink: Some("events.sink_ns_per_event.evict"),
    m_sum: "layers.sum_over_pass.evict",
};

const HIT_NAMES: CellNames = CellNames {
    org: "probe.hit.prefix.org",
    links: "probe.hit.prefix.links",
    census: "probe.hit.prefix.census",
    driver: "probe.hit.SimDriver",
    replay: "probe.hit.Replay::run",
    sink: None,
    m_org: "org.access_ns_per_event.hit",
    m_links: "links.link_ns_per_event.hit",
    m_census: None,
    m_driver: "simulator.driver_ns_per_event.hit",
    m_sink: None,
    m_sum: "layers.sum_over_pass.hit",
};

/// Binary trace format: encode, whole-file decode, streamed decode with
/// nobody consuming, and the streamed replay's buffering receipt.
fn probe_trace_bin(t: &mut Tracer, trace: &TraceLog, out: &mut Vec<Derived>) -> Result<(), String> {
    let events = trace.event_count();
    let bytes = encode_trace(t, trace)?;
    for _ in 0..PREFIX_REPS {
        t.span("trace_bin.load_binary", events, |_| {
            load_binary(Cursor::new(Arc::clone(&bytes))).map(black_box)
        })
        .map_err(|e| e.to_string())?;
        t.span("trace_bin.TraceReader::drain", events, |_| {
            let mut reader = TraceReader::new(Cursor::new(Arc::clone(&bytes)))?;
            while let Some(chunk) = reader.next_chunk() {
                black_box(chunk?);
            }
            Ok::<(), cce_dbt::trace_log::TraceLogError>(())
        })
        .map_err(|e| e.to_string())?;
    }
    let (_, high_water) = stream_replay(t, &bytes, events, Cell::ingest())?;
    out.extend([
        (
            "trace_bin.encode_ns_per_event",
            Ok(ns(per_event(t, "trace_bin.save_binary"))),
        ),
        (
            "trace_bin.decode_ns_per_event",
            Ok(ns(per_event(t, "trace_bin.load_binary"))),
        ),
        (
            "trace_bin.reader_ns_per_event",
            Ok(ns(per_event(t, "trace_bin.TraceReader::drain"))),
        ),
        (
            "trace_bin.bytes_per_event",
            Ok(bytes.len() as f64 / events as f64),
        ),
        ("trace_bin.high_water_events", Ok(high_water as f64)),
    ]);
    Ok(())
}

/// Sharding and the concurrent lane: the same driver over a 4-shard
/// cache and over one tenant's handle, each minus the layer below.
fn probe_shard_and_lane(
    t: &mut Tracer,
    input: &ReplayInput<'_>,
    out: &mut Vec<Derived>,
) -> Result<(), String> {
    let cell = Cell::evict();
    let cfg = input.config(cell, 4);
    let e = |e: CacheError| e.to_string();
    for _ in 0..PREFIX_REPS {
        let sharded =
            ShardedCache::with_granularity(cfg.granularity, cfg.capacity, 4).map_err(e)?;
        input.driver(t, "probe.shard.SimDriver", sharded, &cfg)?;
        let session = ConcurrentSession::new(
            vec![TenantConfig::with_granularity(
                cfg.granularity,
                cfg.capacity,
            )],
            4,
            None,
        )
        .map_err(e)?;
        input.driver(t, "probe.lane.SimDriver", session.tenant(TenantId(0)), &cfg)?;
    }
    let bare = per_event(t, EVICT_NAMES.driver);
    let sharded = per_event(t, "probe.shard.SimDriver");
    let lane = per_event(t, "probe.lane.SimDriver");
    out.push(("shard.route_ns_per_event", Ok(ns(sharded - bare))));
    out.push(("concurrent.lane_ns_per_event", Ok(ns(lane - sharded))));
    Ok(())
}

/// The closed-loop tenant replay at one thread and, where the host has
/// a second one, at two.
fn probe_tenant_scaling(
    t: &mut Tracer,
    seed: u64,
    sizing: Sizing,
    threads: usize,
    out: &mut Vec<Derived>,
) -> Result<(), String> {
    let traces = tenant_traces(t, seed, sizing)?;
    let events: u64 = traces.iter().map(|tr| tr.event_count).sum();
    let run = |t: &mut Tracer, name: &'static str, threads: usize| {
        let cfg = tenants_config(&traces, threads);
        t.span(name, events, |_| {
            simulate_concurrent(&traces, &cfg).map(black_box)
        })
        .map_err(|e| e.to_string())
    };
    run(t, "probe.tenants.t1", 1)?;
    let t1 = per_event(t, "probe.tenants.t1");
    out.push(("concurrent.t1_mevents_per_s", Ok(1.0 / t1 / 1e6)));
    out.push((
        "concurrent.speedup_t2",
        if threads < 2 {
            Err(SINGLE_CORE)
        } else {
            run(t, "probe.tenants.t2", 2)?;
            Ok(t1 / per_event(t, "probe.tenants.t2"))
        },
    ));
    Ok(())
}

/// The distinct effective `(granularity, capacity)` rungs the 50-cell
/// grid collapses to on `trace` — what the ladder engine simulates.
fn distinct_rungs(trace: &TraceLog) -> Vec<LadderCell> {
    let sizing = TraceSizing::of(trace);
    let (granularities, pressures) = grid_axes();
    let mut rungs: Vec<LadderCell> = Vec::new();
    for &p in &pressures {
        for &g in &granularities {
            let cfg = cell_config(sizing, g, p, 1, &SimConfig::default());
            let capacity = match cfg.granularity.unit_count() {
                Some(n) => cfg.capacity / u64::from(n) * u64::from(n),
                None => cfg.capacity,
            };
            let rung = LadderCell {
                granularity: cfg.granularity,
                capacity,
            };
            if !rungs.contains(&rung) {
                rungs.push(rung);
            }
        }
    }
    rungs
}

/// The ladder engine: its fixed per-event cost (one rung), its cost per
/// additional rung, and its edge over the per-cell engine on a grid the
/// latter can finish quickly.
fn probe_ladder(
    t: &mut Tracer,
    trace: &TraceLog,
    small: &[TraceLog],
    out: &mut Vec<Derived>,
) -> Result<(), String> {
    let events = trace.event_count();
    let rungs = distinct_rungs(trace);
    let base = SimConfig::default();
    for _ in 0..PREFIX_REPS {
        t.span("probe.ladder.1rung", events, |_| {
            simulate_ladder_source(trace, &rungs[..1], &base).map(black_box)
        })
        .map_err(|e| e.to_string())?;
        t.span("probe.ladder.all_rungs", events, |_| {
            simulate_ladder_source(trace, &rungs, &base).map(black_box)
        })
        .map_err(|e| e.to_string())?;
    }
    let one = per_event(t, "probe.ladder.1rung");
    let all = per_event(t, "probe.ladder.all_rungs");
    let small_cells = small[0].event_count() * grid_cells();
    t.span("probe.grid.naive", small_cells, |_| {
        run_grid(small, 1, 1, Engine::Naive).map(black_box)
    })?;
    t.span("probe.grid.ladder", small_cells, |_| {
        run_grid(small, 1, 1, Engine::Ladder).map(black_box)
    })?;
    out.extend([
        ("ladder.fixed_ns_per_event", Ok(ns(one))),
        (
            "ladder.ns_per_cell_event",
            Ok(ns(all - one) / (rungs.len().max(2) - 1) as f64),
        ),
        ("ladder.distinct_cells", Ok(rungs.len() as f64)),
        (
            "ladder.speedup_vs_naive",
            Ok(per_event(t, "probe.grid.naive") / per_event(t, "probe.grid.ladder")),
        ),
    ]);
    Ok(())
}

/// The per-cell fallback grid at one job and at two.
fn probe_sweep_jobs(
    t: &mut Tracer,
    traces: &[TraceLog],
    threads: usize,
    out: &mut Vec<Derived>,
) -> Result<(), String> {
    out.push((
        "sweep.jobs2_speedup",
        if threads < 2 {
            Err(SINGLE_CORE)
        } else {
            let cells = traces[0].event_count() * grid_cells();
            for (name, jobs) in [("probe.sharded.jobs1", 1), ("probe.sharded.jobs2", 2)] {
                t.span(name, cells, |_| {
                    run_grid(traces, 4, jobs, Engine::Ladder).map(black_box)
                })?;
            }
            Ok(per_event(t, "probe.sharded.jobs1") / per_event(t, "probe.sharded.jobs2"))
        },
    ));
    Ok(())
}

/// The serve pipeline, stage by stage: plan, wire encode and decode,
/// offline apply, then one paced and one overloaded run.
fn probe_serve(
    t: &mut Tracer,
    seed: u64,
    sizing: Sizing,
    out: &mut Vec<Derived>,
) -> Result<(), String> {
    let paced = setup_serve(t, seed, sizing, false)?.pass(t)?;

    // The stages are timed on the overloaded plan: its 64-event frames
    // make the per-frame cost as large a share as it gets, and its run
    // is the one the apply stage is subtracted from.
    let mut loaded = setup_serve(t, seed, sizing, true)?;
    let plan = &loaded.plan;
    let events = plan.event_count;
    // Room for the whole stream, touched beforehand, so the span times
    // the encoder and not the allocator or the kernel's page faults.
    let mut wire = vec![1u8; events as usize * 9];
    wire.clear();
    t.span("stream.StreamWriter::write_chunk", events, |_| {
        let mut writer = StreamWriter::new(&mut wire, &plan.name, events, &plan.registry)?;
        for request in &plan.requests {
            writer.write_chunk(&request.events)?;
        }
        writer.finish().map(|_| ())
    })
    .map_err(|e| e.to_string())?;
    t.span("stream.FrameStream::next_frame", events, |_| {
        let mut frames = FrameStream::new(Cursor::new(&wire))?;
        loop {
            match frames.next_frame()? {
                StreamFrame::End => return Ok::<(), cce_dbt::trace_log::TraceLogError>(()),
                frame => {
                    black_box(frame);
                }
            }
        }
    })
    .map_err(|e| e.to_string())?;
    t.span("probe.serve.offline_baseline", events, |_| {
        offline_baseline(plan, &loaded.cfg).map(black_box)
    })
    .map_err(|e| e.to_string())?;
    let overload = loaded.pass(t)?;
    drop(loaded);
    let (Some(paced_sample), Some(_)) = (paced.serve, overload.serve) else {
        return Err("serve pass returned no latency sample".to_owned());
    };
    // Wall of the overloaded run itself (its `sim.run_serve` child), per
    // event it managed to apply.
    let overload_wall = t
        .spans()
        .iter()
        .rev()
        .find(|s| s.name == "sim.run_serve")
        .map_or(f64::NAN, |s| s.nanos() as f64);
    let apply = ns(per_event(t, "probe.serve.offline_baseline"));
    out.extend([
        (
            "stream.encode_ns_per_event",
            Ok(ns(per_event(t, "stream.StreamWriter::write_chunk"))),
        ),
        (
            "stream.decode_ns_per_event",
            Ok(ns(per_event(t, "stream.FrameStream::next_frame"))),
        ),
        (
            "stream.wire_bytes_per_event",
            Ok(wire.len() as f64 / events as f64),
        ),
        (
            "serve.plan_build_ns_per_event",
            Ok(ns(per_event(t, "serve.ServePlan::build"))),
        ),
        ("serve.apply_ns_per_event", Ok(apply)),
        (
            "serve.pipeline_overhead_ns_per_event",
            Ok(overload_wall / overload.applied.max(1) as f64 - apply),
        ),
        ("serve.p95_us", Ok(paced_sample.p95_us)),
        ("serve.p99_us", Ok(paced_sample.p99_us)),
        ("serve.max_us", Ok(paced_sample.max_us)),
        (
            "serve.queue_high_water",
            Ok(paced_sample.queue_high_water as f64),
        ),
        ("serve.lag_ms", Ok(paced_sample.lag_ms)),
        (
            "serve.shed_share",
            Ok(1.0 - overload.applied as f64 / overload.offered.max(1) as f64),
        ),
    ]);
    Ok(())
}

/// What the probes found.
pub struct Layers {
    pub metrics: Vec<Derived>,
    /// The largest replay layer under the evict and the hit cell.
    pub dominant_evict: &'static str,
    pub dominant_hit: &'static str,
}

/// Runs every probe (at `--smoke` sizes if `smoke`) and derives the
/// layer metrics from the spans.
///
/// # Errors
///
/// A message when the system under test returned an error.
pub fn run_probes(t: &mut Tracer, seed: u64, smoke: bool) -> Result<Layers, String> {
    let threads = crate::workloads::parallelism();
    let sizing = Sizing {
        smoke,
        seconds: 0.0,
        passes: Some(1),
    };
    let mut out = Vec::new();

    let trace = gcc_trace(t, seed, sizing)?;
    probe_trace_bin(t, &trace, &mut out)?;
    let input = ReplayInput::new(&trace)?;
    let (evict, dominant_evict) = probe_cell(t, &input, Cell::evict(), &EVICT_NAMES)?;
    let (hit, dominant_hit) = probe_cell(t, &input, Cell::hit(), &HIT_NAMES)?;
    out.extend(evict);
    out.extend(hit);
    probe_shard_and_lane(t, &input, &mut out)?;
    drop(input);

    let sharded = vec![sharded_grid_trace(t, seed, sizing)?];
    probe_ladder(t, &trace, &sharded, &mut out)?;
    drop(trace);
    probe_sweep_jobs(t, &sharded, threads, &mut out)?;
    drop(sharded);

    probe_tenant_scaling(t, seed, sizing, threads, &mut out)?;
    probe_serve(t, seed, sizing, &mut out)?;
    // Every trace generated above (and by the workload's own set-up).
    out.push((
        "workloads.gen_ns_per_event",
        Ok(ns(per_event(t, "workloads.trace"))),
    ));
    Ok(Layers {
        metrics: out,
        dominant_evict,
        dominant_hit,
    })
}
