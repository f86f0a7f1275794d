//! # cce-sim — trace-driven simulation and analytical overhead models
//!
//! This crate is the paper's "combined simulation and analytical study"
//! (§4–§5) in library form:
//!
//! * [`overhead`] — the three measured linear cost models: eviction
//!   (Eq. 2), miss/regeneration (Eq. 3) and unlinking (Eq. 4), with the
//!   paper's constants as the defaults;
//! * [`simulator`] — replays a [`cce_dbt::TraceLog`] against a
//!   [`cce_core::CodeCache`] of any granularity and charges the overhead
//!   models for every miss, eviction invocation and unlink operation;
//!   the chunk-oriented core also ingests streaming binary traces
//!   ([`cce_dbt::TraceReader`]) with I/O overlapped against simulation
//!   and O(chunk) peak memory;
//! * [`replay`] — the one front door: a [`replay::Replay`] builder that
//!   configures any source (in-memory, shared, streaming), geometry
//!   (granularity/capacity/pressure/shards), session override, or
//!   multi-tenant concurrent run, and a [`replay::ReplayMatrix`] for
//!   full sweep grids;
//! * [`serve`] — the traffic-driven serving benchmark: an open-loop
//!   load generator streams framed trace chunks over a byte transport
//!   into a concurrent-session server loop, reporting throughput,
//!   latency percentiles and shed counts (DESIGN.md §13);
//! * [`concurrent`] — multi-tenant concurrent replay: N per-tenant
//!   traces served by T threads against one shared
//!   [`cce_core::ConcurrentSession`], each tenant's result byte-identical
//!   to its solo run;
//! * [`metrics`] — the weighted unified miss rate (Eq. 1) and
//!   normalization helpers for the relative-overhead figures;
//! * [`regression`] — ordinary least squares, used both to re-derive the
//!   cost models from measurements (Figure 9) and in tests;
//! * [`measurement`] — an instrumented-measurement campaign over our own
//!   DBT's eviction/regeneration/unlink routines, standing in for the
//!   paper's PAPI hardware-counter runs;
//! * [`pressure`] — the `maxCache/n` cache-pressure sweeps behind
//!   Figures 7, 11 and 15;
//! * [`exectime`] — instruction-to-seconds conversion, the dispatch-cost
//!   model behind Table 2's chaining-disabled slowdowns, and §5.3's
//!   execution-time-reduction estimates;
//! * [`analysis`] — reuse-distance profiles and the analytic miss-rate
//!   floor they impose on every FIFO-family policy;
//! * [`seeds`] — multi-seed robustness analysis (confidence intervals);
//! * [`sweep`] — the deterministic threaded sweep runner: shards grid
//!   cells across scoped worker threads into pre-indexed result slots,
//!   so output is byte-identical at any `--jobs` count;
//! * [`report`] — plain-text/CSV tables for the experiment binaries.
//!
//! # Example: one simulator cell
//!
//! ```
//! use cce_core::Granularity;
//! use cce_sim::Replay;
//! use cce_workloads::catalog;
//!
//! let trace = catalog::by_name("mcf").unwrap().trace(0.5, 1);
//! let result = Replay::new(&trace)
//!     .granularity(Granularity::units(8))
//!     .capacity(trace.max_cache_bytes() / 2) // cache pressure 2
//!     .run()?
//!     .into_solo();
//! assert!(result.stats.miss_rate() > 0.0);
//! # Ok::<(), cce_sim::SimError>(())
//! ```

#![deny(unsafe_code)]
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::iter_over_hash_type
    )
)]

pub mod analysis;
pub mod concurrent;
pub mod exectime;
pub mod ladder;
pub mod measurement;
pub mod metrics;
pub mod overhead;
pub mod pressure;
pub mod regression;
pub mod replay;
pub mod report;
pub mod seeds;
pub mod serve;
pub mod simulator;
pub mod sweep;

pub use concurrent::{simulate_concurrent, simulate_concurrent_with, ConcurrentSimConfig};
pub use ladder::{simulate_ladder_observed, simulate_ladder_source, Engine, LadderCell};
pub use overhead::{LinearModel, OverheadModel};
pub use regression::fit_line;
pub use replay::{Replay, ReplayMatrix, ReplayReport};
pub use serve::{run_serve, ServeConfig, ServeFaults, ServeReport};
pub use simulator::{EventSource, SimConfig, SimDriver, SimError, SimResult};
pub use sweep::{resolve_jobs, SweepCell, SweepPoint};

// `cce-workloads` is a dev-dependency (doc tests and integration tests
// only), so the library proper stays decoupled from the benchmark models.
#[cfg(test)]
use cce_workloads as _;
