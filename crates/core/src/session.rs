//! The narrow serving surface: [`CacheSession`].
//!
//! `CodeCache` historically grew five overlapping insert entry points
//! (`insert`, `insert_hinted`, `insert_evented`, `insert_with_events`,
//! `access_or_insert`) plus parallel `flush`/`flush_with_events`. A
//! sharding layer cannot sanely wrap all of them, so the surface is
//! collapsed to **one evented core per verb**:
//!
//! * [`CacheSession::access_or_insert`] — look up, and on a miss insert
//!   the block described by an [`InsertRequest`], streaming the settled
//!   events into the caller's sink;
//! * [`CacheSession::flush`] — evict everything, streaming likewise.
//!
//! On top of the insert core sits [`CacheSession::transition`], one
//! trace event in one call: lookup, hinted insert on a miss, and the
//! chain from the event's source block. `cce_sim::simulator` makes
//! exactly this call per event (plus the periodic census), so a
//! [`crate::shard::ShardedCache`] routes each id once. A session that
//! guards a sharded cache behind a lock also offers
//! [`CacheSession::hold`], so a replay can take that lock once per fed
//! slice: a [`crate::concurrent::TenantSession`] does, unless its
//! arbiter needs the lock released between events.
//!
//! Thin convenience wrappers ([`CacheSession::access_or_insert_quiet`],
//! [`CacheSession::flush_report`]) are provided methods, so
//! [`CodeCache`], [`crate::shard::ShardedCache`] and the per-tenant
//! [`crate::concurrent::TenantSession`] expose them for free; the
//! legacy `CodeCache` quintet of shims has been deleted —
//! [`CodeCache::insert_request`] is the one insert core.

use crate::cache::{AccessResult, CodeCache, EvictionReport, InsertReport, InsertSummary};
use crate::error::CacheError;
use crate::events::{EventBuffer, EventSink, NullSink};
use crate::ids::{Granularity, SuperblockId};
use crate::shard::ShardedCache;
use crate::stats::CacheStats;
use std::fmt;

/// One insertion, described declaratively: the block, its size, and an
/// optional placement hint (the resident chain source that triggered the
/// regeneration — placement-aware organizations co-locate the two).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InsertRequest {
    /// The superblock to insert.
    pub id: SuperblockId,
    /// Its size in bytes.
    pub size: u32,
    /// Optional placement hint: a resident partner about to be linked.
    pub hint: Option<SuperblockId>,
}

impl InsertRequest {
    /// A request with no placement hint.
    #[must_use]
    pub fn new(id: SuperblockId, size: u32) -> InsertRequest {
        InsertRequest {
            id,
            size,
            hint: None,
        }
    }

    /// Sets (or clears) the placement hint. This is the one canonical
    /// hint constructor: pass `Some(partner)` where the deleted
    /// `hinted(partner)` shim used to be called.
    #[must_use]
    pub fn with_hint(mut self, hint: Option<SuperblockId>) -> InsertRequest {
        self.hint = hint;
        self
    }
}

/// Result of [`CacheSession::access_or_insert`]: the lookup outcome plus
/// the insertion digest when the miss was filled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// The lookup outcome (hit, cold miss, capacity miss).
    pub access: AccessResult,
    /// The insertion summary — `Some` exactly when the access missed.
    pub inserted: Option<InsertSummary>,
}

impl AccessOutcome {
    /// True if the lookup hit (no insertion happened).
    #[must_use]
    pub fn is_hit(&self) -> bool {
        self.access.is_hit()
    }

    /// True if the lookup missed (and the block was inserted).
    #[must_use]
    pub fn is_miss(&self) -> bool {
        self.access.is_miss()
    }
}

/// A serving handle over one code cache — bare or sharded.
///
/// The trait is deliberately narrow: one evented insert core, the
/// fused per-event transition, one evented flush core, chaining, and
/// read-only inspection. Everything else (owned reports, quiet
/// variants) is a provided wrapper.
///
/// # Error contract
///
/// [`CacheSession::access_or_insert`] records the access *before*
/// attempting any insertion, so on `Err` the miss has already been
/// counted and the cache is unchanged otherwise. Callers that tolerate
/// uncacheable blocks (e.g. oversized superblocks) match on
/// [`CacheError::BlockTooLarge`] and carry on.
pub trait CacheSession: fmt::Debug + Send {
    /// Looks up `id`, recording hit/miss statistics. Does **not** insert.
    fn access(&mut self, id: SuperblockId) -> AccessResult;

    /// Looks up `req.id`; on a miss, inserts the block (evicting as
    /// required), streaming the settled events into `sink`.
    ///
    /// # Errors
    ///
    /// Propagates the organization's validation errors
    /// ([`CacheError::ZeroSize`], [`CacheError::BlockTooLarge`]). The
    /// access is recorded either way; see the trait-level error contract.
    fn access_or_insert(
        &mut self,
        req: InsertRequest,
        sink: &mut dyn EventSink,
    ) -> Result<AccessOutcome, CacheError>;

    /// One superblock transition — the whole per-event step of the
    /// paper's cache manager (Figure 1) in one call: look `id` up; on a
    /// miss insert it (`size` bytes), hinted by `from` when `from` is
    /// resident; then, when `chain` is set, link `from → id` if both
    /// are resident after the insert. Streams the settled events into
    /// `sink`.
    ///
    /// Observably identical to the sequence `is_resident(from)` (for
    /// the hint), [`CacheSession::access_or_insert`],
    /// `is_resident(from) && is_resident(id)`, [`CacheSession::link`];
    /// [`crate::testutil::assert_transition_matches_reference`] holds every
    /// session to that.
    ///
    /// # Errors
    ///
    /// As [`CacheSession::access_or_insert`]; nothing is chained on
    /// `Err`.
    fn transition(
        &mut self,
        id: SuperblockId,
        size: u32,
        from: Option<SuperblockId>,
        chain: bool,
        sink: &mut dyn EventSink,
    ) -> Result<AccessOutcome, CacheError>;

    /// Chains `from → to`. Returns `true` if the link is new.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::NotResident`] if either endpoint is not
    /// currently cached.
    fn link(&mut self, from: SuperblockId, to: SuperblockId) -> Result<bool, CacheError>;

    /// Flushes everything, streaming the settled eviction(s) into `sink`.
    /// Returns the combined summary, or `None` if the cache was empty.
    fn flush(&mut self, sink: &mut dyn EventSink) -> Option<InsertSummary>;

    /// True if `id` is resident.
    fn is_resident(&self, id: SuperblockId) -> bool;

    /// True if the link `from → to` is currently recorded.
    fn contains_link(&self, from: SuperblockId, to: SuperblockId) -> bool;

    /// Total capacity in bytes (summed across shards when sharded).
    fn capacity(&self) -> u64;

    /// Occupied bytes.
    fn used(&self) -> u64;

    /// Resident superblock count.
    fn resident_count(&self) -> usize;

    /// The eviction granularity in force.
    fn granularity(&self) -> Granularity;

    /// An owned snapshot of the accumulated statistics (aggregated
    /// across shards when sharded).
    fn stats_snapshot(&self) -> CacheStats;

    /// Census of the live link population: `(intra_unit, inter_unit)`.
    /// Cross-shard links count as inter-unit.
    fn link_census(&self) -> (u64, u64);

    /// Runs `run` once against the sharded cache behind this session,
    /// with whatever guards it held for the whole run, and returns
    /// `true`; returns `false` without calling `run` when the session
    /// has no such cache to lend or must not hold it across calls. A
    /// replay feeding a slice of events uses it to take a lock once per
    /// slice instead of once per event, and falls back to the per-call
    /// methods on `false`.
    ///
    /// The default lends nothing. [`crate::concurrent::TenantSession`]
    /// lends its tenant's cache under the tenant lock, unless its
    /// session has an arbiter: a review must run with no tenant lock
    /// held, between the insert and the chain of the access that
    /// completes an epoch.
    fn hold(&mut self, _run: &mut dyn FnMut(&mut ShardedCache)) -> bool {
        false
    }

    /// [`CacheSession::access_or_insert`] with the events discarded.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CacheSession::access_or_insert`].
    fn access_or_insert_quiet(&mut self, req: InsertRequest) -> Result<AccessOutcome, CacheError> {
        self.access_or_insert(req, &mut NullSink)
    }

    /// Owned-report flush: materializes each eviction invocation (one per
    /// nonempty shard) into an [`EvictionReport`]. Allocates; prefer
    /// [`CacheSession::flush`] on hot paths.
    fn flush_report(&mut self) -> Vec<EvictionReport> {
        let mut buf = EventBuffer::new();
        if self.flush(&mut buf).is_none() {
            return Vec::new();
        }
        InsertReport::from_events(buf.events()).evictions
    }
}

/// Boxed sessions forward every method, so heterogeneous caches (a bare
/// [`CodeCache`], a [`crate::shard::ShardedCache`], a custom policy) can
/// flow through one non-generic replay pipeline.
impl CacheSession for Box<dyn CacheSession> {
    fn access(&mut self, id: SuperblockId) -> AccessResult {
        (**self).access(id)
    }

    fn access_or_insert(
        &mut self,
        req: InsertRequest,
        sink: &mut dyn EventSink,
    ) -> Result<AccessOutcome, CacheError> {
        (**self).access_or_insert(req, sink)
    }

    fn transition(
        &mut self,
        id: SuperblockId,
        size: u32,
        from: Option<SuperblockId>,
        chain: bool,
        sink: &mut dyn EventSink,
    ) -> Result<AccessOutcome, CacheError> {
        (**self).transition(id, size, from, chain, sink)
    }

    fn link(&mut self, from: SuperblockId, to: SuperblockId) -> Result<bool, CacheError> {
        (**self).link(from, to)
    }

    fn hold(&mut self, run: &mut dyn FnMut(&mut ShardedCache)) -> bool {
        (**self).hold(run)
    }

    fn flush(&mut self, sink: &mut dyn EventSink) -> Option<InsertSummary> {
        (**self).flush(sink)
    }

    fn is_resident(&self, id: SuperblockId) -> bool {
        (**self).is_resident(id)
    }

    fn contains_link(&self, from: SuperblockId, to: SuperblockId) -> bool {
        (**self).contains_link(from, to)
    }

    fn capacity(&self) -> u64 {
        (**self).capacity()
    }

    fn used(&self) -> u64 {
        (**self).used()
    }

    fn resident_count(&self) -> usize {
        (**self).resident_count()
    }

    fn granularity(&self) -> Granularity {
        (**self).granularity()
    }

    fn stats_snapshot(&self) -> CacheStats {
        (**self).stats_snapshot()
    }

    fn link_census(&self) -> (u64, u64) {
        (**self).link_census()
    }
}

impl CacheSession for CodeCache {
    fn access(&mut self, id: SuperblockId) -> AccessResult {
        CodeCache::access(self, id)
    }

    fn access_or_insert(
        &mut self,
        req: InsertRequest,
        sink: &mut dyn EventSink,
    ) -> Result<AccessOutcome, CacheError> {
        let access = CodeCache::access(self, req.id);
        if access.is_hit() {
            return Ok(AccessOutcome {
                access,
                inserted: None,
            });
        }
        let summary = self.insert_miss(req, sink)?;
        Ok(AccessOutcome {
            access,
            inserted: Some(summary),
        })
    }

    fn transition(
        &mut self,
        id: SuperblockId,
        size: u32,
        from: Option<SuperblockId>,
        chain: bool,
        sink: &mut dyn EventSink,
    ) -> Result<AccessOutcome, CacheError> {
        CodeCache::transition(self, id, size, from, chain, sink)
    }

    fn link(&mut self, from: SuperblockId, to: SuperblockId) -> Result<bool, CacheError> {
        CodeCache::link(self, from, to)
    }

    fn flush(&mut self, sink: &mut dyn EventSink) -> Option<InsertSummary> {
        CodeCache::flush(self, sink)
    }

    fn is_resident(&self, id: SuperblockId) -> bool {
        CodeCache::is_resident(self, id)
    }

    fn contains_link(&self, from: SuperblockId, to: SuperblockId) -> bool {
        self.link_graph().contains_link(from, to)
    }

    fn capacity(&self) -> u64 {
        CodeCache::capacity(self)
    }

    fn used(&self) -> u64 {
        CodeCache::used(self)
    }

    fn resident_count(&self) -> usize {
        CodeCache::resident_count(self)
    }

    fn granularity(&self) -> Granularity {
        CodeCache::granularity(self)
    }

    fn stats_snapshot(&self) -> CacheStats {
        *self.stats()
    }

    fn link_census(&self) -> (u64, u64) {
        CodeCache::link_census(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::CacheEvent;

    fn sb(n: u64) -> SuperblockId {
        SuperblockId(n)
    }

    /// Generic driver: exercises a session through the trait only, the
    /// way `cce-sim` and `cce-dbt` do.
    fn churn<S: CacheSession>(session: &mut S, steps: u64) {
        for i in 0..steps {
            let id = sb(i % 17);
            let out = session
                .access_or_insert_quiet(InsertRequest::new(id, 40 + (i % 5) as u32 * 16))
                .expect("insert in-range blocks");
            assert_eq!(out.is_hit(), out.inserted.is_none());
            let to = sb((i + 3) % 17);
            if session.is_resident(id) && session.is_resident(to) {
                session.link(id, to).expect("both resident");
            }
        }
    }

    #[test]
    fn code_cache_implements_the_session_trait() {
        let mut c = CodeCache::with_granularity(Granularity::units(4), 512).unwrap();
        churn(&mut c, 200);
        let s = c.stats_snapshot();
        assert_eq!(s.accesses, 200);
        assert_eq!(s.accesses, s.hits + s.misses);
        assert!(CacheSession::used(&c) <= CacheSession::capacity(&c));
        let reports = c.flush_report();
        assert_eq!(reports.len(), 1, "bare cache flushes in one invocation");
        assert_eq!(CacheSession::resident_count(&c), 0);
        assert!(c.flush_report().is_empty(), "empty cache flushes nothing");
    }

    #[test]
    fn request_builder_sets_and_clears_hints() {
        let req = InsertRequest::new(sb(1), 64);
        assert_eq!(req.hint, None);
        assert_eq!(req.with_hint(Some(sb(3))).hint, Some(sb(3)));
        assert_eq!(req.with_hint(Some(sb(2))).with_hint(None).hint, None);
    }

    #[test]
    fn access_outcome_mirrors_the_access_result() {
        let mut c = CodeCache::with_granularity(Granularity::Superblock, 256).unwrap();
        let out = c
            .access_or_insert_quiet(InsertRequest::new(sb(1), 64))
            .unwrap();
        assert!(out.is_miss() && !out.is_hit());
        assert_eq!(out.access, AccessResult::ColdMiss);
        let out = c
            .access_or_insert_quiet(InsertRequest::new(sb(1), 64))
            .unwrap();
        assert!(out.is_hit());
        assert!(out.inserted.is_none());
    }

    #[test]
    fn errors_still_record_the_miss() {
        let mut c = CodeCache::with_granularity(Granularity::Superblock, 100).unwrap();
        let err = c
            .access_or_insert_quiet(InsertRequest::new(sb(1), 4000))
            .unwrap_err();
        assert!(matches!(err, CacheError::BlockTooLarge { .. }));
        let s = c.stats_snapshot();
        assert_eq!((s.accesses, s.misses, s.insertions), (1, 1, 0));
        // Eq. 3 still charges the uncacheable block's bytes.
        assert_eq!((s.miss_bytes, s.bytes_inserted), (4000, 0));
        c.access_or_insert_quiet(InsertRequest::new(sb(2), 60))
            .unwrap();
        let s = c.stats_snapshot();
        assert_eq!((s.miss_bytes, s.bytes_inserted), (4060, 60));
    }

    #[test]
    fn evented_core_streams_the_settled_stream() {
        let mut c = CodeCache::with_granularity(Granularity::Superblock, 100).unwrap();
        let mut buf = EventBuffer::new();
        c.access_or_insert(InsertRequest::new(sb(1), 60), &mut buf)
            .unwrap();
        c.access_or_insert(InsertRequest::new(sb(2), 60), &mut buf)
            .unwrap();
        let evs = buf.events();
        assert_eq!(
            evs.first(),
            Some(&CacheEvent::Inserted {
                id: sb(1),
                size: 60
            })
        );
        assert!(evs
            .iter()
            .any(|e| matches!(e, CacheEvent::Evicted { id, .. } if *id == sb(1))));
    }
}
