//! Traffic-driven serving benchmark (DESIGN.md §13).
//!
//! Offline replay answers "what would this trace have cost"; serve mode
//! answers "what does this cache sustain under live load". An open-loop
//! generator thread synthesizes a request stream — Poisson arrivals at a
//! configured rate, tenants picked uniformly, superblock popularity
//! Zipf-skewed, all deterministic from one seed — and writes it as the
//! PR 5 chunked binary trace format over a byte-stream transport (an
//! in-process bounded pipe or a Unix socket pair; identical framing
//! either way). The server side decodes frames with
//! [`cce_dbt::FrameStream`], routes each request batch to its tenant's
//! worker lane through a **bounded ingress** (overload sheds whole
//! batches, counted and reported — the server never buffers without
//! limit and never blocks the generator), and applies events against one
//! shared [`cce_core::ConcurrentSession`] while recording per-request
//! service latency.
//!
//! Wire ids are tenant-tagged (`tenant << 32 | local`, see
//! [`wire_id`]), but no tenant cache ever sees one: admission splits
//! each id into (tenant, local), rejects a frame that strays outside its
//! tenant or its source registry, and rewrites the batch to local
//! indices. Every tenant's cache is therefore keyed by dense source
//! indices — its id tables stay on their direct side and its home shard
//! is `jump_hash(local)` — exactly as if it replayed its own stream
//! alone.
//!
//! Three degradation paths are first-class, with fault injection for
//! each ([`ServeFaults`]):
//!
//! * **overload** — ingress over budget sheds the batch; `dropped_*`
//!   counters and the queue high-water mark make it visible;
//! * **corruption** — a frame failing its CRC, or naming a block outside
//!   its tenant, is rejected *per frame* (the stream stays aligned, later
//!   frames still apply);
//! * **disconnect** — the generator dying mid-chunk terminates the
//!   stream; workers drain what was queued and the run reports cleanly.
//!
//! Determinism: the traffic plan ([`ServePlan`]) is a pure function of
//! [`ServeConfig`], and with `threads == 1` and no faults the events
//! applied per tenant are byte-identical to replaying
//! [`ServePlan::per_tenant`] offline — the serve↔offline conformance
//! test pins this with [`offline_baseline`].

use crate::pressure::{capacity_for_pressure, TraceSizing};
use crate::simulator::{SimConfig, SimDriver, SimError};
use cce_core::{CacheStats, ConcurrentSession, Granularity, SuperblockId, TenantConfig, TenantId};
use cce_dbt::stream::encode_chunk_payload;
use cce_dbt::{FrameStream, StreamFrame, StreamWriter, SuperblockInfo, TraceEvent};
use cce_util::crc::crc32;
use cce_util::rng::{Rng, StdRng};
use std::collections::VecDeque;
use std::io::{BufReader, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Tenant-tagged wire ids: `id = tenant << 32 | local`. One stream
/// carries every tenant's frames; the server routes on the high half.
pub const TENANT_ID_SHIFT: u32 = 32;

/// The low half of a wire id: the block's index in the source registry.
const LOCAL_MASK: u64 = (1 << TENANT_ID_SHIFT) - 1;

/// Largest Zipf exponent [`ServePlan::build`] accepts.
pub const MAX_SKEW: f64 = 8.0;

/// Probability that an event chains to its predecessor in the batch
/// (a "direct" transition that may form a link).
const CHAIN_PROBABILITY: f64 = 0.7;

/// Transport capacity of the in-process pipe, in bytes. Small enough
/// that a stalled server exerts back-pressure on the wire, large enough
/// to hold several frames.
const PIPE_CAPACITY: usize = 64 * 1024;

/// Events [`offline_baseline`] localizes and feeds at a time: its one
/// scratch buffer never grows past this, whatever a tenant's stream
/// length.
const LOCALIZE_CHUNK: usize = 4096;

/// How the generated byte stream reaches the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeTransport {
    /// In-process bounded pipe (no OS resources, works everywhere).
    Pipe,
    /// A `UnixStream::pair` — the same bytes through a real socket.
    Unix,
}

/// Fault injection for the degradation tests. All off by default.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeFaults {
    /// Kill the generator's writer after this many bytes — the server
    /// sees a mid-chunk disconnect.
    pub disconnect_after_bytes: Option<u64>,
    /// Corrupt the CRC of every `n`-th request frame (1-based period).
    pub corrupt_every: Option<u64>,
    /// Artificial per-batch service delay in microseconds — drives the
    /// server into sustained overload without huge plans.
    pub apply_delay_micros: u64,
}

/// Configuration of one serve run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Number of tenants sharing the cache.
    pub tenants: usize,
    /// Server worker threads (tenant `t` is owned by worker
    /// `t % threads`; 1 = fully reproducible).
    pub threads: usize,
    /// Shards per tenant lane.
    pub shards: u32,
    /// Eviction granularity of every tenant's lanes.
    pub granularity: Granularity,
    /// Per-tenant capacity in bytes; 0 derives pressure-4 capacity from
    /// the source registry's footprint.
    pub capacity: u64,
    /// Offered request rate (requests per second, Poisson arrivals).
    pub rps: f64,
    /// Target duration in seconds; together with `rps` this sizes the
    /// plan (`requests ≈ rps × duration`).
    pub duration_secs: f64,
    /// Events per request frame.
    pub batch_events: usize,
    /// Zipf popularity exponent over the superblock registry (0 =
    /// uniform), within `0..=`[`MAX_SKEW`].
    pub skew: f64,
    /// Seed for the whole traffic plan.
    pub seed: u64,
    /// Ingress budget in queued events across all lanes; a batch that
    /// would exceed it is shed whole.
    pub queue_events: usize,
    /// Byte transport between generator and server.
    pub transport: ServeTransport,
    /// Keep per-tenant logs of the events actually applied (the
    /// conformance tests compare them byte-for-byte with the plan).
    pub record_events: bool,
    /// Fault injection.
    pub faults: ServeFaults,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            tenants: 4,
            threads: 1,
            shards: 4,
            granularity: Granularity::Superblock,
            capacity: 0,
            rps: 2000.0,
            duration_secs: 1.0,
            batch_events: 64,
            skew: 0.8,
            seed: 7,
            queue_events: 1 << 16,
            transport: ServeTransport::Pipe,
            record_events: false,
            faults: ServeFaults::default(),
        }
    }
}

/// One request of the traffic plan: a batch of events for one tenant,
/// offered at `at_nanos` after stream start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeRequest {
    /// Target tenant.
    pub tenant: usize,
    /// Arrival offset from the start of the run, in nanoseconds.
    pub at_nanos: u64,
    /// The events of this request, in wire id space.
    pub events: Vec<TraceEvent>,
}

/// The fully materialized traffic plan: a pure function of the source
/// registry and [`ServeConfig`], so the same seed always offers the
/// same load. `per_tenant` is the offline-replay reference: tenant
/// `t`'s events in offered order, exactly what a fault-free serve run
/// applies.
#[derive(Debug, Clone, PartialEq)]
pub struct ServePlan {
    /// Stream name carried in the wire header.
    pub name: String,
    /// Wire registry: every tenant's copy of the source registry under
    /// tenant-tagged ids.
    pub registry: Vec<SuperblockInfo>,
    /// Requests in offered order.
    pub requests: Vec<ServeRequest>,
    /// Per-tenant event streams, in offered order (wire ids).
    pub per_tenant: Vec<Vec<TraceEvent>>,
    /// Total events across all requests.
    pub event_count: u64,
    /// The per-tenant capacity the run will use (resolved from
    /// `cfg.capacity`, deriving pressure-4 when 0).
    pub tenant_capacity: u64,
}

impl ServePlan {
    /// Builds the plan from a source superblock registry (typically a
    /// workload trace's) and the serve configuration.
    ///
    /// # Errors
    ///
    /// [`SimError::Config`] for an empty registry, a registry too large
    /// for the tenant id encoding, zero tenants/threads/batch, a rate or
    /// duration that is not finite and positive, a skew outside
    /// `0..=`[`MAX_SKEW`], or a plan of more than `u32::MAX` events.
    pub fn build(
        source_registry: &[SuperblockInfo],
        name: &str,
        cfg: &ServeConfig,
    ) -> Result<ServePlan, SimError> {
        if source_registry.is_empty() {
            return Err(SimError::Config("serve needs a non-empty registry"));
        }
        if source_registry.len() as u64 >= 1 << TENANT_ID_SHIFT {
            return Err(SimError::Config("registry too large for tenant-tagged ids"));
        }
        if cfg.tenants == 0 || cfg.tenants as u64 >= u64::from(u32::MAX) {
            return Err(SimError::Config("tenant count out of range"));
        }
        if cfg.threads == 0 {
            return Err(SimError::Config("serve needs at least one thread"));
        }
        if cfg.batch_events == 0 {
            return Err(SimError::Config("batch must hold at least one event"));
        }
        // NaN or +∞ would put every event on block 0 and a large
        // negative skew every event on the last block.
        if !(0.0..=MAX_SKEW).contains(&cfg.skew) {
            return Err(SimError::Config("skew must be finite and in 0..=8"));
        }
        let positive = |x: f64| x.is_finite() && x > 0.0;
        if !positive(cfg.rps) || !positive(cfg.duration_secs) {
            return Err(SimError::Config(
                "rps and duration must be finite and positive",
            ));
        }
        // The plan materializes every event, so bound the total before
        // allocating anything.
        let request_count = (cfg.rps * cfg.duration_secs).round().max(1.0);
        if request_count * cfg.batch_events as f64 > f64::from(u32::MAX) {
            return Err(SimError::Config(
                "rps × duration × batch exceeds u32::MAX events",
            ));
        }
        let request_count = request_count as u64;

        // Wire registry: tenants × source, under tenant-tagged ids. The
        // local id is the *index* into the source registry, so wire ids
        // are dense regardless of the source's own id scheme.
        let mut registry = Vec::with_capacity(cfg.tenants.saturating_mul(source_registry.len()));
        for tenant in 0..cfg.tenants {
            for (local, sb) in source_registry.iter().enumerate() {
                registry.push(SuperblockInfo {
                    id: wire_id(tenant, local),
                    head_pc: sb.head_pc,
                    size: sb.size,
                    guest_blocks: sb.guest_blocks,
                    exits: sb.exits,
                });
            }
        }

        // Zipf CDF over source indices: weight(k) ∝ 1 / (k+1)^skew.
        let mut cdf = Vec::with_capacity(source_registry.len());
        let mut total = 0.0f64;
        for k in 0..source_registry.len() {
            total += 1.0 / ((k + 1) as f64).powf(cfg.skew);
            cdf.push(total);
        }

        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut requests = Vec::with_capacity(usize::try_from(request_count).unwrap_or(0));
        let mut per_tenant: Vec<Vec<TraceEvent>> = vec![Vec::new(); cfg.tenants];
        let mut clock_nanos = 0.0f64;
        for _ in 0..request_count {
            // Open-loop Poisson arrivals: exponential inter-arrival gaps.
            let u: f64 = rng.next_f64();
            clock_nanos += -(1.0 - u).ln() / cfg.rps * 1e9;
            let tenant = rng.gen_range(0..cfg.tenants);
            let mut events = Vec::with_capacity(cfg.batch_events);
            let mut prev: Option<SuperblockId> = None;
            for _ in 0..cfg.batch_events {
                let pick = rng.next_f64() * total;
                let local = cdf.partition_point(|&c| c < pick).min(cdf.len() - 1);
                let id = wire_id(tenant, local);
                let direct_from = prev.filter(|_| rng.gen_bool(CHAIN_PROBABILITY));
                events.push(TraceEvent::Access { id, direct_from });
                prev = Some(id);
            }
            per_tenant[tenant].extend_from_slice(&events);
            requests.push(ServeRequest {
                tenant,
                at_nanos: clock_nanos as u64,
                events,
            });
        }
        let event_count = requests.iter().map(|r| r.events.len() as u64).sum();

        let tenant_capacity = if cfg.capacity > 0 {
            cfg.capacity
        } else {
            let sizing = TraceSizing::of_registry(source_registry);
            capacity_for_pressure(sizing.max_cache_bytes, 4)
        };

        Ok(ServePlan {
            name: format!("serve-{name}"),
            registry,
            requests,
            per_tenant,
            event_count,
            tenant_capacity,
        })
    }

    /// The source registry every tenant's cache is built over: tenant
    /// 0's slice of [`ServePlan::registry`], whose wire ids are already
    /// the local indices admission rewrites every frame to.
    #[must_use]
    pub fn source_registry(&self) -> &[SuperblockInfo] {
        let len = self.registry.len() / self.per_tenant.len().max(1);
        &self.registry[..len]
    }
}

/// The tenant-tagged wire id for `local` within `tenant`.
#[must_use]
pub fn wire_id(tenant: usize, local: usize) -> SuperblockId {
    SuperblockId(((tenant as u64) << TENANT_ID_SHIFT) | local as u64)
}

/// Which tenant a wire id belongs to.
#[must_use]
pub fn tenant_of(id: SuperblockId) -> usize {
    (id.0 >> TENANT_ID_SHIFT) as usize
}

/// Rewrites a frame of `tenant`'s wire ids, in place, to local source
/// indices. `Err` carries the first id or chain source that belongs to
/// another tenant or indexes past the `sources`-entry source registry;
/// the frame is then partly rewritten and must be discarded.
fn localize(events: &mut [TraceEvent], tenant: usize, sources: u64) -> Result<(), SuperblockId> {
    let local = |wire: SuperblockId| {
        let idx = wire.0 & LOCAL_MASK;
        if tenant_of(wire) == tenant && idx < sources {
            Ok(SuperblockId(idx))
        } else {
            Err(wire)
        }
    };
    for ev in events {
        let TraceEvent::Access { id, direct_from } = ev;
        *id = local(*id)?;
        if let Some(from) = direct_from {
            *from = local(*from)?;
        }
    }
    Ok(())
}

/// `tenant`'s wire form of a localized event.
fn to_wire(ev: TraceEvent, tenant: usize) -> TraceEvent {
    let TraceEvent::Access { id, direct_from } = ev;
    let wire = |local: SuperblockId| wire_id(tenant, local.0 as usize);
    TraceEvent::Access {
        id: wire(id),
        direct_from: direct_from.map(wire),
    }
}

/// Request-latency percentiles over the run, in nanoseconds (enqueue at
/// the server's ingress → batch fully applied).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Number of serviced batches the percentiles summarize.
    pub samples: u64,
    /// Median service latency.
    pub p50_nanos: u64,
    /// 95th percentile.
    pub p95_nanos: u64,
    /// 99th percentile.
    pub p99_nanos: u64,
    /// Worst observed.
    pub max_nanos: u64,
}

/// One tenant's outcome of a serve run.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantServeStats {
    /// Tenant index.
    pub tenant: usize,
    /// Events applied to this tenant's lanes.
    pub applied_events: u64,
    /// The tenant's cache statistics after the run.
    pub stats: CacheStats,
}

/// The outcome of a serve run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Stream name.
    pub name: String,
    /// Tenants served.
    pub tenants: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Requests the plan offered.
    pub offered_requests: u64,
    /// Events the plan offered.
    pub offered_events: u64,
    /// Request frames the generator actually put on the wire.
    pub sent_requests: u64,
    /// Events decoded and admitted into the ingress queue.
    pub delivered_events: u64,
    /// Events applied to the cache.
    pub applied_events: u64,
    /// Whole batches shed at the ingress (overload policy).
    pub dropped_requests: u64,
    /// Events inside those shed batches.
    pub dropped_events: u64,
    /// Frames rejected whole, the stream staying aligned: every
    /// [`Self::foreign_frames`] one, plus those that failed their CRC or
    /// did not decode.
    pub rejected_frames: u64,
    /// The rejected frames that decoded but named a block outside their
    /// tenant: another tenant's id or chain source, or an index past the
    /// source registry. Nonzero means a misbehaving client; the rest of
    /// [`Self::rejected_frames`] is line noise.
    pub foreign_frames: u64,
    /// True when the stream died mid-frame instead of terminating.
    pub disconnected: bool,
    /// Wall-clock duration of the run in seconds.
    pub wall_secs: f64,
    /// Applied events per wall second.
    pub throughput_events_per_sec: f64,
    /// Most events ever queued at the ingress at once.
    pub queue_high_water: u64,
    /// Service-latency percentiles.
    pub latency: LatencySummary,
    /// Per-tenant cache outcomes.
    pub per_tenant: Vec<TenantServeStats>,
    /// Per-tenant applied-event logs in wire ids (as offered), present
    /// when [`ServeConfig::record_events`] was set.
    pub applied_log: Option<Vec<Vec<TraceEvent>>>,
}

/// Locks a mutex, recovering the data from a poisoned lock instead of
/// propagating the panic (the serve loop must degrade, not cascade).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------
// In-process bounded byte pipe.
// ---------------------------------------------------------------------

struct PipeBuf {
    data: VecDeque<u8>,
    closed: bool,
}

struct PipeShared {
    buf: Mutex<PipeBuf>,
    readable: Condvar,
    writable: Condvar,
}

struct PipeWriter(std::sync::Arc<PipeShared>);
struct PipeReader(std::sync::Arc<PipeShared>);

fn pipe() -> (PipeWriter, PipeReader) {
    let shared = std::sync::Arc::new(PipeShared {
        buf: Mutex::new(PipeBuf {
            data: VecDeque::new(),
            closed: false,
        }),
        readable: Condvar::new(),
        writable: Condvar::new(),
    });
    (PipeWriter(shared.clone()), PipeReader(shared))
}

impl Write for PipeWriter {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        if bytes.is_empty() {
            return Ok(0);
        }
        let mut g = lock(&self.0.buf);
        loop {
            if g.closed {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::BrokenPipe,
                    "pipe reader is gone",
                ));
            }
            if g.data.len() < PIPE_CAPACITY {
                break;
            }
            g = self
                .0
                .writable
                .wait(g)
                .unwrap_or_else(PoisonError::into_inner);
        }
        let n = bytes.len().min(PIPE_CAPACITY - g.data.len());
        g.data.extend(&bytes[..n]);
        drop(g);
        self.0.readable.notify_one();
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Drop for PipeWriter {
    fn drop(&mut self) {
        lock(&self.0.buf).closed = true;
        self.0.readable.notify_all();
        self.0.writable.notify_all();
    }
}

impl Read for PipeReader {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        if out.is_empty() {
            return Ok(0);
        }
        let mut g = lock(&self.0.buf);
        loop {
            if !g.data.is_empty() {
                let n = g.data.read(out)?;
                drop(g);
                self.0.writable.notify_one();
                return Ok(n);
            }
            if g.closed {
                return Ok(0); // EOF
            }
            g = self
                .0
                .readable
                .wait(g)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl Drop for PipeReader {
    fn drop(&mut self) {
        lock(&self.0.buf).closed = true;
        self.0.readable.notify_all();
        self.0.writable.notify_all();
    }
}

/// A writer that dies after `remaining` bytes — the disconnect fault.
struct LimitWriter<W: Write> {
    inner: W,
    remaining: u64,
}

impl<W: Write> Write for LimitWriter<W> {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        if self.remaining == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "injected disconnect",
            ));
        }
        let n = bytes
            .len()
            .min(usize::try_from(self.remaining).unwrap_or(usize::MAX));
        let written = self.inner.write(&bytes[..n])?;
        self.remaining -= written as u64;
        Ok(written)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

// ---------------------------------------------------------------------
// Server internals.
// ---------------------------------------------------------------------

/// One batch admitted into a worker lane.
struct Batch {
    tenant: usize,
    /// The frame's events, in local source indices.
    events: Vec<TraceEvent>,
    enqueued_at: Instant,
}

/// One worker's queue: the decode loop pushes, one worker pops.
struct Lane {
    queue: Mutex<VecDeque<Batch>>,
    ready: Condvar,
}

/// Shared ingress accounting (events queued across all lanes).
struct Ingress {
    queued_events: usize,
    high_water: usize,
    dropped_requests: u64,
    dropped_events: u64,
}

/// What one worker hands back at join time.
struct WorkerOut {
    applied_per_tenant: Vec<(usize, u64)>,
    latencies_nanos: Vec<u64>,
    applied_log: Vec<(usize, Vec<TraceEvent>)>,
    error: Option<SimError>,
}

/// What the generator hands back at join time.
struct GenOut {
    sent_requests: u64,
    write_failed: bool,
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Replays [`ServePlan::per_tenant`] offline against the identical
/// cache geometry and returns each tenant's [`CacheStats`] — the
/// reference a fault-free, single-threaded serve run must reproduce
/// exactly. Like the server, each tenant replays in local source
/// indices over [`ServePlan::source_registry`]; its wire stream is
/// localized through one bounded scratch buffer, never copied whole.
///
/// # Errors
///
/// [`SimError::UnknownSuperblock`] for a plan event outside its
/// tenant's source registry; propagates cache-construction and replay
/// errors.
pub fn offline_baseline(plan: &ServePlan, cfg: &ServeConfig) -> Result<Vec<CacheStats>, SimError> {
    let session = build_session(plan, cfg)?;
    let sim = SimConfig::default();
    let sources = plan.source_registry();
    let mut local = Vec::with_capacity(LOCALIZE_CHUNK);
    for (tenant, events) in plan.per_tenant.iter().enumerate() {
        if events.is_empty() {
            continue;
        }
        let handle = session.tenant(TenantId(tenant as u32));
        let mut driver = SimDriver::new(
            &plan.name,
            sources,
            events.len() as u64,
            handle,
            cfg.granularity.label(),
            &sim,
        )?;
        for chunk in events.chunks(LOCALIZE_CHUNK) {
            local.clear();
            local.extend_from_slice(chunk);
            localize(&mut local, tenant, sources.len() as u64)
                .map_err(SimError::UnknownSuperblock)?;
            driver.feed(&local)?;
        }
        let _ = driver.finish()?;
    }
    Ok((0..cfg.tenants)
        .map(|t| session.tenant_stats(TenantId(t as u32)))
        .collect())
}

fn build_session(plan: &ServePlan, cfg: &ServeConfig) -> Result<ConcurrentSession, SimError> {
    let tenants = (0..cfg.tenants)
        .map(|_| TenantConfig::with_granularity(cfg.granularity, plan.tenant_capacity))
        .collect();
    Ok(ConcurrentSession::new(tenants, cfg.shards, None)?)
}

/// Runs the serving benchmark: generator → transport → decode → bounded
/// ingress → tenant workers, all inside one scoped thread tree, and
/// assembles the [`ServeReport`].
///
/// # Errors
///
/// [`SimError::Config`] for invalid configuration (including the Unix
/// transport on a platform without it), [`SimError::Cache`] for bad
/// geometry, [`SimError::Ingest`] if the wire header cannot be read,
/// and any error a worker hit while applying events.
pub fn run_serve(plan: &ServePlan, cfg: &ServeConfig) -> Result<ServeReport, SimError> {
    if cfg.threads == 0 || cfg.tenants == 0 {
        return Err(SimError::Config("serve needs tenants and threads"));
    }
    let session = build_session(plan, cfg)?;

    let (writer, reader): (Box<dyn Write + Send>, Box<dyn Read + Send>) = match cfg.transport {
        ServeTransport::Pipe => {
            let (w, r) = pipe();
            (Box::new(w), Box::new(r))
        }
        ServeTransport::Unix => unix_pair()?,
    };
    let writer: Box<dyn Write + Send> = match cfg.faults.disconnect_after_bytes {
        Some(limit) => Box::new(LimitWriter {
            inner: writer,
            remaining: limit,
        }),
        None => writer,
    };

    let lanes: Vec<Lane> = (0..cfg.threads)
        .map(|_| Lane {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
        })
        .collect();
    let ingress = Mutex::new(Ingress {
        queued_events: 0,
        high_water: 0,
        dropped_requests: 0,
        dropped_events: 0,
    });
    let done = AtomicBool::new(false);

    #[expect(
        clippy::disallowed_methods,
        reason = "wall-clock timing is the benchmark's measurement, not cache state"
    )]
    let started = Instant::now();

    let mut delivered_events = 0u64;
    let mut rejected_frames = 0u64;
    let mut foreign_frames = 0u64;
    let mut disconnected = false;

    let (gen_out, worker_outs) = std::thread::scope(|scope| {
        let generator = scope.spawn(|| generate(plan, cfg, writer));
        let workers: Vec<_> = (0..cfg.threads)
            .map(|w| {
                let lane = &lanes[w];
                let session = &session;
                let ingress = &ingress;
                let done = &done;
                scope.spawn(move || serve_worker(plan, cfg, lane, session, ingress, done))
            })
            .collect();

        // The decode loop runs on this thread: frames off the wire,
        // batches into lanes.
        let sources = plan.source_registry().len() as u64;
        match FrameStream::new(BufReader::new(reader)) {
            Ok(mut stream) => loop {
                match stream.next_frame() {
                    Ok(StreamFrame::Events(mut events)) => {
                        if events.is_empty() {
                            continue;
                        }
                        // The first event names the frame's tenant; every
                        // id must stay inside it.
                        let TraceEvent::Access { id, .. } = events[0];
                        let tenant = tenant_of(id);
                        let inside =
                            tenant < cfg.tenants && localize(&mut events, tenant, sources).is_ok();
                        if !inside {
                            rejected_frames += 1;
                            foreign_frames += 1;
                            continue;
                        }
                        let count = events.len();
                        let admitted = {
                            let mut g = lock(&ingress);
                            if g.queued_events + count > cfg.queue_events {
                                g.dropped_requests += 1;
                                g.dropped_events += count as u64;
                                false
                            } else {
                                g.queued_events += count;
                                g.high_water = g.high_water.max(g.queued_events);
                                true
                            }
                        };
                        if admitted {
                            delivered_events += count as u64;
                            let lane = &lanes[tenant % cfg.threads];
                            #[expect(
                                clippy::disallowed_methods,
                                reason = "wall-clock timing is the benchmark's measurement, not cache state"
                            )]
                            let enqueued_at = Instant::now();
                            lock(&lane.queue).push_back(Batch {
                                tenant,
                                events,
                                enqueued_at,
                            });
                            lane.ready.notify_one();
                        }
                    }
                    Ok(StreamFrame::Rejected(_)) => rejected_frames += 1,
                    Ok(StreamFrame::End) => break,
                    Err(_) => {
                        disconnected = true;
                        break;
                    }
                }
            },
            Err(_) => disconnected = true,
        }

        done.store(true, Ordering::SeqCst);
        for lane in &lanes {
            lane.ready.notify_all();
        }
        let worker_outs: Vec<WorkerOut> = workers
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| WorkerOut {
                    applied_per_tenant: Vec::new(),
                    latencies_nanos: Vec::new(),
                    applied_log: Vec::new(),
                    error: Some(SimError::Worker("serve worker panicked".to_owned())),
                })
            })
            .collect();
        let gen_out = generator.join().unwrap_or(GenOut {
            sent_requests: 0,
            write_failed: true,
        });
        (gen_out, worker_outs)
    });

    #[expect(
        clippy::disallowed_methods,
        reason = "wall-clock timing is the benchmark's measurement, not cache state"
    )]
    let wall_secs = started.elapsed().as_secs_f64();

    let mut applied_by_tenant = vec![0u64; cfg.tenants];
    let mut latencies = Vec::new();
    let mut applied_log = cfg.record_events.then(|| vec![Vec::new(); cfg.tenants]);
    for out in worker_outs {
        if let Some(err) = out.error {
            return Err(err);
        }
        for (tenant, n) in out.applied_per_tenant {
            applied_by_tenant[tenant] += n;
        }
        latencies.extend(out.latencies_nanos);
        if let Some(log) = applied_log.as_mut() {
            for (tenant, events) in out.applied_log {
                log[tenant] = events;
            }
        }
    }
    latencies.sort_unstable();

    let ingress = lock(&ingress);
    let applied_events: u64 = applied_by_tenant.iter().sum();
    let per_tenant = (0..cfg.tenants)
        .map(|t| TenantServeStats {
            tenant: t,
            applied_events: applied_by_tenant[t],
            stats: session.tenant_stats(TenantId(t as u32)),
        })
        .collect();

    Ok(ServeReport {
        name: plan.name.clone(),
        tenants: cfg.tenants,
        threads: cfg.threads,
        offered_requests: plan.requests.len() as u64,
        offered_events: plan.event_count,
        sent_requests: gen_out.sent_requests,
        delivered_events,
        applied_events,
        dropped_requests: ingress.dropped_requests,
        dropped_events: ingress.dropped_events,
        rejected_frames,
        foreign_frames,
        disconnected: disconnected || gen_out.write_failed,
        wall_secs,
        throughput_events_per_sec: if wall_secs > 0.0 {
            applied_events as f64 / wall_secs
        } else {
            0.0
        },
        queue_high_water: ingress.high_water as u64,
        latency: LatencySummary {
            samples: latencies.len() as u64,
            p50_nanos: percentile(&latencies, 0.50),
            p95_nanos: percentile(&latencies, 0.95),
            p99_nanos: percentile(&latencies, 0.99),
            max_nanos: latencies.last().copied().unwrap_or(0),
        },
        per_tenant,
        applied_log,
    })
}

#[cfg(unix)]
#[allow(clippy::type_complexity)]
fn unix_pair() -> Result<(Box<dyn Write + Send>, Box<dyn Read + Send>), SimError> {
    let (a, b) = std::os::unix::net::UnixStream::pair()
        .map_err(|e| SimError::Ingest(format!("unix socketpair: {e}")))?;
    Ok((Box::new(a), Box::new(b)))
}

#[cfg(not(unix))]
#[allow(clippy::type_complexity)]
fn unix_pair() -> Result<(Box<dyn Write + Send>, Box<dyn Read + Send>), SimError> {
    Err(SimError::Config(
        "unix transport unavailable on this platform",
    ))
}

/// The open-loop generator: paces the plan's requests on their Poisson
/// arrival times and frames each as one PR 5 event chunk. Write errors
/// (a dead transport, the disconnect fault) end the stream immediately
/// — open-loop means the generator never waits for the server's
/// verdict, only for the clock.
fn generate<W: Write>(plan: &ServePlan, cfg: &ServeConfig, writer: W) -> GenOut {
    #[expect(
        clippy::disallowed_methods,
        reason = "wall-clock pacing drives offered load, not cache state"
    )]
    let start = Instant::now();
    let Ok(mut stream) = StreamWriter::new(writer, &plan.name, plan.event_count, &plan.registry)
    else {
        return GenOut {
            sent_requests: 0,
            write_failed: true,
        };
    };
    let mut sent = 0u64;
    for (i, req) in plan.requests.iter().enumerate() {
        let target = start + Duration::from_nanos(req.at_nanos);
        #[expect(
            clippy::disallowed_methods,
            reason = "wall-clock pacing drives offered load, not cache state"
        )]
        let now = Instant::now();
        if target > now {
            std::thread::sleep(target - now);
        }
        let corrupt = cfg
            .faults
            .corrupt_every
            .is_some_and(|n| n > 0 && (i as u64 + 1).is_multiple_of(n));
        let wrote = if corrupt {
            let payload = encode_chunk_payload(&req.events);
            stream.write_raw(crc32(&payload) ^ 0xdead_beef, &payload)
        } else {
            stream.write_chunk(&req.events)
        };
        if wrote.is_err() {
            return GenOut {
                sent_requests: sent,
                write_failed: true,
            };
        }
        sent += 1;
    }
    let closed = stream.finish();
    GenOut {
        sent_requests: sent,
        write_failed: closed.is_err(),
    }
}

/// One server worker: pops batches for its tenants (tenant `t` belongs
/// to worker `t % threads`), applies them through the shared session
/// via the same [`SimDriver`] core offline replay uses — over the
/// source registry, since batches arrive in local indices — and records
/// service latency per batch.
fn serve_worker(
    plan: &ServePlan,
    cfg: &ServeConfig,
    lane: &Lane,
    session: &ConcurrentSession,
    ingress: &Mutex<Ingress>,
    done: &AtomicBool,
) -> WorkerOut {
    let sim = SimConfig::default();
    let mut drivers: Vec<Option<SimDriver<cce_core::TenantSession>>> = Vec::new();
    drivers.resize_with(cfg.tenants, || None);
    let mut applied = vec![0u64; cfg.tenants];
    let mut latencies = Vec::new();
    let mut log: Vec<Vec<TraceEvent>> = vec![Vec::new(); cfg.tenants];
    let mut error = None;

    'serve: loop {
        let batch = {
            let mut g = lock(&lane.queue);
            loop {
                if let Some(b) = g.pop_front() {
                    break b;
                }
                if done.load(Ordering::SeqCst) {
                    break 'serve;
                }
                g = lane.ready.wait(g).unwrap_or_else(PoisonError::into_inner);
            }
        };
        let count = batch.events.len();
        if error.is_none() {
            let driver = match &mut drivers[batch.tenant] {
                Some(d) => Some(d),
                slot @ None => {
                    let handle = session.tenant(TenantId(batch.tenant as u32));
                    match SimDriver::new(
                        &plan.name,
                        plan.source_registry(),
                        plan.event_count.max(1),
                        handle,
                        cfg.granularity.label(),
                        &sim,
                    ) {
                        Ok(d) => {
                            *slot = Some(d);
                            slot.as_mut()
                        }
                        Err(e) => {
                            error = Some(e);
                            None
                        }
                    }
                }
            };
            if let Some(driver) = driver {
                if let Err(e) = driver.feed(&batch.events) {
                    error = Some(e);
                } else {
                    applied[batch.tenant] += count as u64;
                    if cfg.record_events {
                        let wire = batch.events.iter().map(|&ev| to_wire(ev, batch.tenant));
                        log[batch.tenant].extend(wire);
                    }
                    if cfg.faults.apply_delay_micros > 0 {
                        std::thread::sleep(Duration::from_micros(cfg.faults.apply_delay_micros));
                    }
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "wall-clock timing is the benchmark's measurement, not cache state"
                    )]
                    let nanos = batch.enqueued_at.elapsed().as_nanos();
                    latencies.push(u64::try_from(nanos).unwrap_or(u64::MAX));
                }
            }
        }
        let mut g = lock(ingress);
        g.queued_events = g.queued_events.saturating_sub(count);
        drop(g);
    }

    WorkerOut {
        applied_per_tenant: applied
            .into_iter()
            .enumerate()
            .filter(|&(_, n)| n > 0)
            .collect(),
        latencies_nanos: latencies,
        applied_log: log
            .into_iter()
            .enumerate()
            .filter(|(_, events)| !events.is_empty())
            .collect(),
        error,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry(n: u64) -> Vec<SuperblockInfo> {
        (0..n)
            .map(|i| SuperblockInfo {
                id: SuperblockId(i * 17 + 3), // deliberately sparse ids
                head_pc: cce_tinyvm::program::Pc(i * 100),
                size: 120 + (i as u32 % 5) * 40,
                guest_blocks: 4,
                exits: 2,
            })
            .collect()
    }

    fn quick_cfg() -> ServeConfig {
        ServeConfig {
            tenants: 3,
            threads: 1,
            rps: 500_000.0, // effectively unpaced
            duration_secs: 0.001,
            batch_events: 16,
            record_events: true,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn non_finite_or_oversized_load_is_rejected() {
        let reg = registry(4);
        let bad = [
            (f64::NAN, 1.0),
            (f64::INFINITY, 1.0),
            (f64::NEG_INFINITY, 1.0),
            (1e300, 1.0),
            (1.0, f64::NAN),
            (1.0, f64::INFINITY),
            (1e300, 1e300),
        ];
        for (rps, duration_secs) in bad {
            let cfg = ServeConfig {
                rps,
                duration_secs,
                ..quick_cfg()
            };
            let got = ServePlan::build(&reg, "t", &cfg);
            assert!(
                matches!(got, Err(SimError::Config(_))),
                "rps {rps}, duration {duration_secs}: {got:?}"
            );
        }
        for skew in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1e6, 8.5] {
            let cfg = ServeConfig {
                skew,
                ..quick_cfg()
            };
            let got = ServePlan::build(&reg, "t", &cfg);
            assert!(
                matches!(got, Err(SimError::Config(_))),
                "skew {skew}: {got:?}"
            );
        }
        for skew in [0.0, MAX_SKEW] {
            let cfg = ServeConfig {
                skew,
                ..quick_cfg()
            };
            assert!(ServePlan::build(&reg, "t", &cfg).is_ok(), "skew {skew}");
        }
    }

    #[test]
    fn plan_is_deterministic_and_partitioned() {
        let reg = registry(40);
        let cfg = quick_cfg();
        let a = ServePlan::build(&reg, "t", &cfg).unwrap();
        let b = ServePlan::build(&reg, "t", &cfg).unwrap();
        assert_eq!(a, b);
        // per_tenant is exactly the requests split by tenant, in order.
        let mut rebuilt: Vec<Vec<TraceEvent>> = vec![Vec::new(); cfg.tenants];
        for r in &a.requests {
            rebuilt[r.tenant].extend_from_slice(&r.events);
        }
        assert_eq!(rebuilt, a.per_tenant);
        assert_eq!(a.event_count, (a.requests.len() * cfg.batch_events) as u64);
        // Arrival times are nondecreasing.
        assert!(a
            .requests
            .windows(2)
            .all(|w| w[0].at_nanos <= w[1].at_nanos));
    }

    #[test]
    fn zipf_skew_concentrates_popularity() {
        let reg = registry(64);
        let cfg = ServeConfig {
            skew: 1.2,
            ..quick_cfg()
        };
        let plan = ServePlan::build(&reg, "t", &cfg).unwrap();
        let mut head = 0u64;
        let mut total = 0u64;
        for r in &plan.requests {
            for ev in &r.events {
                let TraceEvent::Access { id, .. } = *ev;
                let local = id.0 & ((1 << TENANT_ID_SHIFT) - 1);
                if local < 8 {
                    head += 1;
                }
                total += 1;
            }
        }
        // 8/64 of the ids should draw far more than 12.5% of accesses.
        assert!(
            head * 3 > total,
            "head {head} of {total} is not skewed enough"
        );
    }

    #[test]
    fn serve_applies_everything_when_unloaded() {
        let reg = registry(32);
        let cfg = quick_cfg();
        let plan = ServePlan::build(&reg, "t", &cfg).unwrap();
        let report = run_serve(&plan, &cfg).unwrap();
        assert_eq!(report.dropped_events, 0);
        assert_eq!(report.rejected_frames, 0);
        assert!(!report.disconnected);
        assert_eq!(report.applied_events, plan.event_count);
        assert_eq!(report.sent_requests, plan.requests.len() as u64);
        assert!(report.latency.samples > 0);
        assert!(report.latency.max_nanos >= report.latency.p50_nanos);
    }

    #[test]
    fn serve_matches_offline_baseline_exactly() {
        let reg = registry(48);
        let cfg = quick_cfg();
        let plan = ServePlan::build(&reg, "t", &cfg).unwrap();
        let report = run_serve(&plan, &cfg).unwrap();
        let offline = offline_baseline(&plan, &cfg).unwrap();
        let log = report.applied_log.as_ref().unwrap();
        for t in 0..cfg.tenants {
            // Byte-identical applied events per tenant...
            assert_eq!(
                encode_chunk_payload(&log[t]),
                encode_chunk_payload(&plan.per_tenant[t]),
                "tenant {t} applied a different event stream"
            );
            // ...and identical cache statistics.
            assert_eq!(report.per_tenant[t].stats, offline[t], "tenant {t}");
        }
    }

    #[test]
    fn unix_transport_agrees_with_pipe() {
        let reg = registry(24);
        let base = quick_cfg();
        let plan = ServePlan::build(&reg, "t", &base).unwrap();
        let pipe_run = run_serve(&plan, &base).unwrap();
        let unix_cfg = ServeConfig {
            transport: ServeTransport::Unix,
            ..base
        };
        let unix_run = run_serve(&plan, &unix_cfg).unwrap();
        assert_eq!(pipe_run.applied_events, unix_run.applied_events);
        for (a, b) in pipe_run.per_tenant.iter().zip(&unix_run.per_tenant) {
            assert_eq!(a.stats, b.stats);
        }
    }
}
