//! # cce — code cache eviction granularities
//!
//! Umbrella crate for the reproduction of *Exploring Code Cache Eviction
//! Granularities in Dynamic Optimization Systems* (Hazelwood & Smith,
//! CGO 2004). It re-exports the workspace crates under stable paths:
//!
//! * [`core`] — the software code cache with the FLUSH /
//!   N-unit FIFO / fine-FIFO eviction spectrum, chaining and back-pointer
//!   bookkeeping (the paper's contribution);
//! * [`dbt`] — the code-cache access trace (the analogue of the
//!   DynamoRIO log the paper replayed) and its JSON, binary and
//!   live-stream formats;
//! * [`tinyvm`] — `Pc`, the guest address type the trace registry
//!   records;
//! * [`workloads`] — the paper's 20 benchmarks as calibrated
//!   statistical models, the source of every trace;
//! * [`sim`] — trace-driven simulation, the Eq. 2–4 overhead
//!   models, regression, pressure sweeps and execution-time estimates.
//!
//! # Quick start
//!
//! Inserts go through one evented entry point, [`core::CodeCache::insert_request`];
//! the [`core::CacheSession`] trait drives a bare cache and a
//! [`core::ShardedCache`] identically:
//!
//! ```
//! use cce::core::{CacheSession, CodeCache, Granularity, InsertRequest, SuperblockId};
//!
//! let mut cache = CodeCache::with_granularity(Granularity::units(8), 64 * 1024)?;
//! let outcome = cache.access_or_insert_quiet(InsertRequest::new(SuperblockId(1), 230))?;
//! assert!(outcome.is_miss());
//! assert!(cache.access(SuperblockId(1)).is_hit());
//! # Ok::<(), cce::core::CacheError>(())
//! ```
//!
//! See the `examples/` directory for end-to-end scenarios and
//! `cce-experiments` for the per-figure regenerators.

#![deny(unsafe_code)]

pub use cce_core as core;
pub use cce_dbt as dbt;
pub use cce_sim as sim;
pub use cce_tinyvm as tinyvm;
pub use cce_workloads as workloads;
