//! # cce-core — software code cache with a spectrum of eviction granularities
//!
//! This crate is the primary contribution of the reproduced paper
//! (*Exploring Code Cache Eviction Granularities in Dynamic Optimization
//! Systems*, Hazelwood & Smith, CGO 2004): a software-managed code cache
//! whose eviction policy ranges from a **full flush** (the whole cache is
//! one unit), through **medium-grained N-unit FIFO** (the cache is
//! partitioned into N equal units, each flushed whole in round-robin
//! order), down to **fine-grained FIFO** (individual superblocks evicted
//! from a circular buffer, just enough to fit the incoming block).
//!
//! What makes code caches different from hardware caches (paper §3):
//!
//! * entries (superblocks) are **variable-sized**;
//! * entries are **chained** — jumps between cached superblocks are patched
//!   directly, so evicting a block requires *unlinking* every incoming jump
//!   via a back-pointer table or execution would run through dangling
//!   pointers ([`links::LinkGraph`] enforces this bookkeeping);
//! * there is **no backing store** — a miss regenerates the superblock at a
//!   cost orders of magnitude above a hardware miss.
//!
//! The central type is [`CodeCache`], which combines a cache organization
//! ([`org::CacheOrg`] implementation — the eviction policy) with the link
//! graph and full statistics ([`stats::CacheStats`]). Serving goes through
//! the narrow [`CacheSession`] trait — one evented
//! `access_or_insert(req, sink)` core plus thin wrappers — implemented by
//! `CodeCache`, the sharded multi-cache [`shard::ShardedCache`] and the
//! per-tenant handles of the concurrent multi-tenant layer
//! ([`concurrent::ConcurrentSession`]).
//!
//! # Quick start
//!
//! ```
//! use cce_core::{CacheSession, CodeCache, Granularity, InsertRequest, SuperblockId};
//!
//! // 1 KiB cache split into 4 FIFO units (a medium granularity).
//! let mut cache = CodeCache::with_granularity(Granularity::units(4), 1024)?;
//!
//! let a = SuperblockId(1);
//! let b = SuperblockId(2);
//! assert!(cache
//!     .access_or_insert_quiet(InsertRequest::new(a, 200))?
//!     .is_miss());
//! cache.access_or_insert_quiet(InsertRequest::new(b, 120))?;
//! cache.link(a, b)?; // DBT patched a's exit to jump straight to b
//! assert!(cache.access(a).is_hit());
//! assert_eq!(cache.stats().links_created, 1);
//! # Ok::<(), cce_core::CacheError>(())
//! ```

#![deny(unsafe_code)]

pub mod cache;
pub mod concurrent;
pub mod error;
pub mod events;
pub mod idmap;
pub mod ids;
pub mod links;
pub mod org;
pub mod session;
pub mod shard;
pub mod stats;
pub mod testutil;
pub mod visualize;

pub use cache::{AccessResult, CodeCache, EvictionReport, InsertReport, InsertSummary};
pub use concurrent::{
    ArbiterConfig, ArbiterDecision, ConcurrentSession, OrgFactory, TenantConfig, TenantId,
    TenantSession,
};
pub use error::CacheError;
pub use events::{
    CacheEvent, CacheObserver, CountingSink, EventBuffer, EventSink, EvictionScope, NullSink,
};
pub use ids::{Granularity, SuperblockId, UnitId};
pub use links::LinkGraph;
pub use org::adaptive::AdaptiveUnits;
pub use org::affinity::AffinityUnits;
pub use org::fine_fifo::FineFifo;
pub use org::generational::Generational;
pub use org::lru::LruCache;
pub use org::preemptive::PreemptiveFlush;
pub use org::unit_fifo::UnitFifo;
pub use org::{CacheOrg, RawEviction, RawInsert};
pub use session::{AccessOutcome, CacheSession, InsertRequest};
pub use shard::ShardedCache;
pub use stats::CacheStats;
