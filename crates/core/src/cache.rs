//! The [`CodeCache`]: organization + link graph + statistics.
//!
//! This is the type a dynamic optimizer embeds. It exposes the three
//! operations the paper's control-flow diagram (Figure 1) requires of a
//! cache manager — **lookup** ([`CodeCache::access`]), **insert with
//! eviction** ([`CodeCache::insert_request`]) and **chain**
//! ([`CodeCache::link`]) — and transparently maintains the back-pointer
//! table so no eviction can leave a dangling link.
//!
//! Insertion is event-driven: the organization streams its eviction
//! decisions into a reusable scratch [`EventBuffer`], and the cache
//! settles them (link unpatching, statistics) in a **single traversal**,
//! producing a compact [`InsertSummary`] with no per-insert heap
//! allocation in steady state. The settled stream — with `Unlinked`
//! events and real `links_dropped_free` counts — is forwarded to an
//! optional observer ([`CodeCache::set_observer`]) and to the sink the
//! caller passes.
//!
//! There is exactly **one** insert core ([`CodeCache::insert_request`],
//! taking an [`crate::InsertRequest`]) and one flush core
//! ([`CodeCache::flush`], taking a sink); callers usually drive either
//! through the [`crate::CacheSession`] trait, which serves a bare
//! `CodeCache`, a [`crate::shard::ShardedCache`] and a per-tenant
//! [`crate::concurrent::TenantSession`] identically. The pre-redesign
//! `#[deprecated]` shims were removed once every in-repo caller had
//! migrated; owned reports are materialized from event streams only via
//! [`EvictionReport::from`] / [`InsertReport::from_events`].

use crate::error::CacheError;
use crate::events::{CacheEvent, CacheObserver, EventBuffer, EventSink};
use crate::idmap::IdSet;
use crate::ids::{Granularity, SuperblockId, UnitId};
use crate::links::LinkGraph;
use crate::org::unit_fifo::UnitFifo;
use crate::org::{fine_fifo::FineFifo, CacheOrg};
use crate::session::InsertRequest;
use crate::stats::CacheStats;
use std::fmt;

/// Outcome of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessResult {
    /// The superblock is resident; execution jumps straight into the cache.
    Hit,
    /// First-ever request for this superblock (compulsory miss).
    ColdMiss,
    /// The superblock was resident once but has been evicted — the
    /// replacement policy's fault.
    CapacityMiss,
}

impl AccessResult {
    /// True for [`AccessResult::Hit`].
    #[must_use]
    pub fn is_hit(self) -> bool {
        matches!(self, AccessResult::Hit)
    }

    /// True for either miss kind.
    #[must_use]
    pub fn is_miss(self) -> bool {
        !self.is_hit()
    }
}

/// One eviction-mechanism invocation, annotated with unlink work.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EvictionReport {
    /// `(superblock, size)` pairs evicted, in eviction order.
    pub evicted: Vec<(SuperblockId, u32)>,
    /// Total bytes freed.
    pub bytes: u64,
    /// For each evicted block that had incoming links from *survivors*:
    /// `(block, number_of_incoming_links_unpatched)`. This is exactly the
    /// per-block `numLinks` of the paper's Eq. 4.
    pub unlinked: Vec<(SuperblockId, u32)>,
    /// Links dropped without unpatching work: both endpoints died in this
    /// invocation (intra-unit links, including self links), or the link's
    /// source died taking its patched jump with it.
    pub links_dropped_free: u64,
}

/// The one events→report materialization point: parses the settled
/// stream of a **single** eviction invocation (from its `EvictionBegin`
/// through its `EvictionEnd`, inclusive). Events outside that grammar
/// are ignored, so malformed slices degrade to partial reports instead
/// of panicking.
impl From<&[CacheEvent]> for EvictionReport {
    fn from(invocation: &[CacheEvent]) -> EvictionReport {
        let mut report = EvictionReport::default();
        for &ev in invocation {
            match ev {
                CacheEvent::Evicted { id, size } => report.evicted.push((id, size)),
                CacheEvent::Unlinked { id, links } => report.unlinked.push((id, links)),
                CacheEvent::EvictionEnd {
                    bytes,
                    links_dropped_free,
                } => {
                    report.bytes = bytes;
                    report.links_dropped_free = links_dropped_free;
                }
                _ => {}
            }
        }
        report
    }
}

/// Result of a successful [`CodeCache::insert`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct InsertReport {
    /// Eviction invocations performed to make room.
    pub evictions: Vec<EvictionReport>,
    /// Bytes lost to unit padding by this insertion.
    pub padding: u64,
}

impl InsertReport {
    /// True if the insertion evicted anything.
    #[must_use]
    pub fn evicted_anything(&self) -> bool {
        !self.evictions.is_empty()
    }

    /// Reassembles a report from a *settled* event stream (as produced
    /// by [`CodeCache::insert_request`]): accumulates padding and slices
    /// each `EvictionBegin … EvictionEnd` invocation through
    /// [`EvictionReport::from`], the single events→report
    /// materialization point.
    #[must_use]
    pub fn from_events(events: &[CacheEvent]) -> InsertReport {
        let mut report = InsertReport::default();
        let mut i = 0;
        while i < events.len() {
            match events[i] {
                CacheEvent::Padding { bytes } => report.padding += bytes,
                CacheEvent::EvictionBegin => {
                    let mut end = i + 1;
                    while end < events.len()
                        && !matches!(events[end], CacheEvent::EvictionEnd { .. })
                    {
                        end += 1;
                    }
                    if end < events.len() {
                        report
                            .evictions
                            .push(EvictionReport::from(&events[i..=end]));
                        i = end;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        report
    }
}

/// Allocation-free digest of one insertion: everything the overhead
/// models (Eqs. 2 and 4) need, without materializing per-eviction
/// vectors. All cost models are linear, so sums are sufficient.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InsertSummary {
    /// Bytes lost to unit padding.
    pub padding: u64,
    /// Eviction-mechanism invocations performed (Eq. 2 fixed cost each).
    pub evictions: u32,
    /// Superblocks evicted across all invocations.
    pub blocks_evicted: u32,
    /// Bytes evicted across all invocations (Eq. 2 per-byte cost).
    pub bytes_evicted: u64,
    /// Evicted blocks whose incoming links needed unpatching (Eq. 4
    /// fixed cost each).
    pub unlink_operations: u32,
    /// Total links unpatched (Eq. 4 per-link cost).
    pub links_unlinked: u64,
}

impl InsertSummary {
    /// True if the insertion evicted anything.
    #[must_use]
    pub fn evicted_anything(&self) -> bool {
        self.evictions > 0
    }
}

/// A software code cache with pluggable eviction organization.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
pub struct CodeCache {
    org: Box<dyn CacheOrg>,
    links: LinkGraph,
    stats: CacheStats,
    seen: IdSet,
    /// Scratch buffer the organization streams into; reused so the hot
    /// path performs no allocation once warm.
    buf: EventBuffer,
    /// Scratch set of the current invocation's victims; reused likewise.
    dying: IdSet,
    /// Optional subscriber to the settled event stream.
    observer: Option<Box<dyn CacheObserver>>,
}

impl fmt::Debug for CodeCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CodeCache")
            .field("org", &self.org)
            .field("links", &self.links)
            .field("stats", &self.stats)
            .field("observer", &self.observer.is_some())
            .finish_non_exhaustive()
    }
}

/// Forwards a settled event to the observer (if any) and the sink.
/// A macro rather than a method so the surrounding traversal can keep
/// disjoint field borrows on `links`/`stats`/`buf`.
macro_rules! settle_emit {
    ($self:ident, $sink:ident, $ev:expr) => {{
        let ev = $ev;
        if let Some(obs) = $self.observer.as_mut() {
            obs.on_event(ev);
        }
        $sink.event(ev);
    }};
}

impl CodeCache {
    /// Wraps an organization (use this for custom policies).
    #[must_use]
    pub fn new(org: Box<dyn CacheOrg>) -> CodeCache {
        CodeCache {
            org,
            links: LinkGraph::new(),
            stats: CacheStats::new(),
            seen: IdSet::default(),
            buf: EventBuffer::new(),
            dying: IdSet::default(),
            observer: None,
        }
    }

    /// Creates a cache of `capacity` bytes at one of the paper's
    /// granularities.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::ZeroCapacity`] or [`CacheError::TooManyUnits`]
    /// for invalid geometry.
    pub fn with_granularity(g: Granularity, capacity: u64) -> Result<CodeCache, CacheError> {
        let org: Box<dyn CacheOrg> = match g {
            Granularity::Flush => Box::new(UnitFifo::new(capacity, 1)?),
            Granularity::Units(n) => Box::new(UnitFifo::new(capacity, n.get())?),
            Granularity::Superblock => Box::new(FineFifo::new(capacity)?),
        };
        Ok(CodeCache::new(org))
    }

    /// Subscribes `observer` to the settled event stream: every `Hit`,
    /// `Miss`, `Padding`, `EvictionBegin`, `Evicted`, `Unlinked`,
    /// `EvictionEnd` and `Inserted` the cache produces from now on.
    /// Replaces any previous observer.
    pub fn set_observer(&mut self, observer: Box<dyn CacheObserver>) {
        self.observer = Some(observer);
    }

    /// Removes and returns the current observer, if any.
    pub fn take_observer(&mut self) -> Option<Box<dyn CacheObserver>> {
        self.observer.take()
    }

    /// Looks up `id`, recording hit/miss statistics. Does **not** insert.
    pub fn access(&mut self, id: SuperblockId) -> AccessResult {
        self.stats.accesses += 1;
        let result = if self.org.contains(id) {
            self.stats.hits += 1;
            self.org.note_hit(id);
            AccessResult::Hit
        } else if self.seen.contains(&id) {
            self.stats.misses += 1;
            self.stats.capacity_misses += 1;
            AccessResult::CapacityMiss
        } else {
            self.stats.misses += 1;
            self.stats.cold_misses += 1;
            AccessResult::ColdMiss
        };
        if let Some(obs) = self.observer.as_mut() {
            obs.on_event(match result {
                AccessResult::Hit => CacheEvent::Hit { id },
                AccessResult::ColdMiss => CacheEvent::Miss { id, cold: true },
                AccessResult::CapacityMiss => CacheEvent::Miss { id, cold: false },
            });
        }
        self.org.note_access(result.is_hit());
        result
    }

    /// Inserts the superblock described by `req`, evicting as required
    /// and unpatching every link into each evicted block; the settled
    /// event stream is mirrored into `sink`. Allocation-free in steady
    /// state; returns the compact [`InsertSummary`]. This is the one
    /// insert core — every other insert entry point is a shim over it.
    ///
    /// # Errors
    ///
    /// Propagates the organization's validation errors
    /// ([`CacheError::AlreadyResident`], [`CacheError::ZeroSize`],
    /// [`CacheError::BlockTooLarge`]).
    pub fn insert_request(
        &mut self,
        req: InsertRequest,
        sink: &mut dyn EventSink,
    ) -> Result<InsertSummary, CacheError> {
        self.buf.clear();
        self.org
            .insert_events(req.id, req.size, req.hint, &mut self.buf)?;
        self.seen.insert(req.id);
        self.stats.insertions += 1;
        self.stats.bytes_inserted += u64::from(req.size);
        let summary = self.settle(sink);
        self.stats.high_water_bytes = self.stats.high_water_bytes.max(self.org.used());
        self.stats.high_water_blocks = self
            .stats
            .high_water_blocks
            .max(self.org.resident_count() as u64);
        Ok(summary)
    }

    /// Chains `from → to` (the DBT patched `from`'s exit stub to jump
    /// directly to `to`). Returns `true` if the link is new.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::NotResident`] if either endpoint is not
    /// currently cached — a real DBT can only patch resident code.
    pub fn link(&mut self, from: SuperblockId, to: SuperblockId) -> Result<bool, CacheError> {
        // `unit_of` is `Some` exactly for resident blocks (checked by
        // `testutil::conformance`), so one probe per endpoint is both
        // the residency check and the unit lookup.
        let from_unit = self
            .org
            .unit_of(from)
            .ok_or(CacheError::NotResident(from))?;
        let to_unit = self.org.unit_of(to).ok_or(CacheError::NotResident(to))?;
        let new = self.links.add_link(from, to);
        if new {
            self.stats.links_created += 1;
            if from_unit != to_unit {
                self.stats.inter_unit_links_created += 1;
            }
        }
        Ok(new)
    }

    /// Flushes the entire cache manually (e.g. a Dynamo-style preemptive
    /// flush on a detected phase change), streaming the settled eviction
    /// into `sink`. Returns its summary, or `None` if the cache was
    /// empty. This is the one flush core; for an owned report use
    /// [`crate::CacheSession::flush_report`].
    pub fn flush(&mut self, sink: &mut dyn EventSink) -> Option<InsertSummary> {
        self.buf.clear();
        if !self.org.flush_events(&mut self.buf) {
            return None;
        }
        Some(self.settle(sink))
    }

    /// Swaps the organization of an **empty** cache, preserving its
    /// statistics, its `seen` set (so miss classification survives), its
    /// link graph and any observer. This is the capacity-re-partitioning
    /// primitive: the Memshare-style arbiter flushes a lane, replaces its
    /// organization at the new capacity, and re-inserts the survivors —
    /// without forgetting which superblocks the tenant has ever seen.
    ///
    /// # Panics
    ///
    /// Panics if the cache still holds resident bytes; callers must
    /// [`CodeCache::flush`] first.
    pub fn replace_org(&mut self, org: Box<dyn CacheOrg>) {
        assert_eq!(
            self.org.used(),
            0,
            "replace_org requires an empty cache; flush first"
        );
        self.org = org;
    }

    /// True if `id` is resident.
    #[must_use]
    pub fn is_resident(&self, id: SuperblockId) -> bool {
        self.org.contains(id)
    }

    /// The eviction unit holding `id`, if resident.
    #[must_use]
    pub fn unit_of(&self, id: SuperblockId) -> Option<UnitId> {
        self.org.unit_of(id)
    }

    /// Capacity in bytes.
    #[must_use]
    pub fn capacity(&self) -> u64 {
        self.org.capacity()
    }

    /// Occupied bytes.
    #[must_use]
    pub fn used(&self) -> u64 {
        self.org.used()
    }

    /// Resident superblock count.
    #[must_use]
    pub fn resident_count(&self) -> usize {
        self.org.resident_count()
    }

    /// The eviction granularity in force.
    #[must_use]
    pub fn granularity(&self) -> Granularity {
        self.org.granularity()
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The live link graph (back-pointer table included).
    #[must_use]
    pub fn link_graph(&self) -> &LinkGraph {
        &self.links
    }

    /// Takes a census of the live link population: `(intra_unit,
    /// inter_unit)` counts. Self-links are intra by definition; a link is
    /// inter-unit when its endpoints currently reside in different
    /// eviction units (the paper's Figure 13 metric).
    #[must_use]
    pub fn link_census(&self) -> (u64, u64) {
        let mut intra = 0;
        let mut inter = 0;
        for (from, to) in self.links.iter_links() {
            if from == to || self.org.unit_of(from) == self.org.unit_of(to) {
                intra += 1;
            } else {
                inter += 1;
            }
        }
        (intra, inter)
    }

    /// Direct access to the underlying organization.
    #[must_use]
    pub fn org(&self) -> &dyn CacheOrg {
        self.org.as_ref()
    }

    /// Settles the raw event stream buffered in `self.buf` in a single
    /// traversal: classifies and removes all links touching each
    /// invocation's victims, updates statistics, and forwards the settled
    /// stream (with `Unlinked` events and real `links_dropped_free`) to
    /// the observer and `sink`.
    fn settle(&mut self, sink: &mut dyn EventSink) -> InsertSummary {
        let mut summary = InsertSummary::default();
        let n = self.buf.len();
        let mut i = 0;
        while i < n {
            let ev = self.buf.get(i);
            match ev {
                CacheEvent::Padding { bytes } => {
                    self.stats.padding_bytes += bytes;
                    summary.padding += bytes;
                    settle_emit!(self, sink, ev);
                }
                CacheEvent::EvictionBegin => {
                    // Pre-scan the invocation to learn the complete dying
                    // set — survivor classification needs it.
                    self.dying.clear();
                    let mut inv_bytes = 0u64;
                    let mut inv_blocks = 0u32;
                    let mut j = i + 1;
                    while j < n {
                        if let CacheEvent::Evicted { id, size } = self.buf.get(j) {
                            self.dying.insert(id);
                            inv_bytes += u64::from(size);
                            inv_blocks += 1;
                            j += 1;
                        } else {
                            break;
                        }
                    }
                    debug_assert!(
                        matches!(self.buf.get(j), CacheEvent::EvictionEnd { .. }),
                        "organization emitted a malformed invocation"
                    );
                    self.stats.eviction_invocations += 1;
                    self.stats.blocks_evicted += u64::from(inv_blocks);
                    self.stats.bytes_evicted += inv_bytes;
                    summary.evictions += 1;
                    summary.blocks_evicted += inv_blocks;
                    summary.bytes_evicted += inv_bytes;
                    settle_emit!(self, sink, CacheEvent::EvictionBegin);
                    let links_before = self.links.link_count();
                    let mut unlinked_total = 0u64;
                    for k in (i + 1)..j {
                        let CacheEvent::Evicted { id, size } = self.buf.get(k) else {
                            unreachable!("pre-scan bounded the invocation")
                        };
                        // Incoming links from blocks that survive this
                        // invocation are the ones that must be unpatched
                        // through the back-pointer table (Eq. 4). Links
                        // among co-victims — and outgoing links, which
                        // die with their source — cost nothing.
                        let survivors = self
                            .links
                            .incoming_iter(id)
                            .filter(|s| !self.dying.contains(s))
                            .count() as u32;
                        self.links.remove_block(id);
                        settle_emit!(self, sink, CacheEvent::Evicted { id, size });
                        if survivors > 0 {
                            self.stats.unlink_operations += 1;
                            self.stats.links_unlinked += u64::from(survivors);
                            summary.unlink_operations += 1;
                            summary.links_unlinked += u64::from(survivors);
                            unlinked_total += u64::from(survivors);
                            settle_emit!(
                                self,
                                sink,
                                CacheEvent::Unlinked {
                                    id,
                                    links: survivors
                                }
                            );
                        }
                    }
                    let links_dropped_free =
                        (links_before - self.links.link_count()) - unlinked_total;
                    self.stats.links_dropped_free += links_dropped_free;
                    settle_emit!(
                        self,
                        sink,
                        CacheEvent::EvictionEnd {
                            bytes: inv_bytes,
                            links_dropped_free,
                        }
                    );
                    i = j; // at the org's EvictionEnd; replaced by ours.
                }
                other => settle_emit!(self, sink, other),
            }
            i += 1;
        }
        summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::NullSink;
    use crate::session::CacheSession;

    fn sb(n: u64) -> SuperblockId {
        SuperblockId(n)
    }

    /// Inserts through the one core and materializes the owned report,
    /// the way the deprecated `insert` shim does.
    fn ins(c: &mut CodeCache, id: SuperblockId, size: u32) -> InsertReport {
        let mut buf = EventBuffer::new();
        c.insert_request(InsertRequest::new(id, size), &mut buf)
            .unwrap();
        InsertReport::from_events(buf.events())
    }

    #[test]
    fn access_classifies_cold_and_capacity_misses() {
        let mut c = CodeCache::with_granularity(Granularity::Flush, 100).unwrap();
        assert_eq!(c.access(sb(1)), AccessResult::ColdMiss);
        ins(&mut c, sb(1), 60);
        assert_eq!(c.access(sb(1)), AccessResult::Hit);
        // Force eviction of sb1.
        assert_eq!(c.access(sb(2)), AccessResult::ColdMiss);
        ins(&mut c, sb(2), 60);
        assert_eq!(c.access(sb(1)), AccessResult::CapacityMiss);
        let s = c.stats();
        assert_eq!(s.accesses, 4);
        assert_eq!(s.hits, 1);
        assert_eq!(s.cold_misses, 2);
        assert_eq!(s.capacity_misses, 1);
    }

    #[test]
    fn link_requires_residency() {
        let mut c = CodeCache::with_granularity(Granularity::units(2), 200).unwrap();
        ins(&mut c, sb(1), 40);
        assert_eq!(c.link(sb(1), sb(2)), Err(CacheError::NotResident(sb(2))));
        assert_eq!(c.link(sb(2), sb(1)), Err(CacheError::NotResident(sb(2))));
        ins(&mut c, sb(2), 40);
        assert_eq!(c.link(sb(1), sb(2)), Ok(true));
        assert_eq!(
            c.link(sb(1), sb(2)),
            Ok(false),
            "duplicate patch is a no-op"
        );
        assert_eq!(c.stats().links_created, 1);
    }

    #[test]
    fn inter_unit_links_classified_at_creation() {
        // 2 units of 50 bytes each.
        let mut c = CodeCache::with_granularity(Granularity::units(2), 100).unwrap();
        ins(&mut c, sb(1), 30); // unit 0
        ins(&mut c, sb(2), 30); // unit 1 (doesn't fit unit 0)
        ins(&mut c, sb(3), 15); // unit 1
        c.link(sb(2), sb(3)).unwrap(); // intra (both unit 1)
        c.link(sb(1), sb(2)).unwrap(); // inter
        c.link(sb(1), sb(1)).unwrap(); // self ⇒ intra
        let s = c.stats();
        assert_eq!(s.links_created, 3);
        assert_eq!(s.inter_unit_links_created, 1);
        assert!((s.inter_unit_link_fraction() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn flush_drops_all_links_for_free() {
        let mut c = CodeCache::with_granularity(Granularity::Flush, 100).unwrap();
        ins(&mut c, sb(1), 30);
        ins(&mut c, sb(2), 30);
        c.link(sb(1), sb(2)).unwrap();
        c.link(sb(2), sb(1)).unwrap();
        // Overflow triggers the flush.
        let report = ins(&mut c, sb(3), 60);
        assert_eq!(report.evictions.len(), 1);
        let ev = &report.evictions[0];
        assert!(ev.unlinked.is_empty(), "full flush needs no unlinking");
        assert_eq!(ev.links_dropped_free, 2);
        assert_eq!(c.stats().unlink_operations, 0);
        assert_eq!(c.link_graph().link_count(), 0);
    }

    #[test]
    fn fine_fifo_eviction_unpatches_survivor_links() {
        let mut c = CodeCache::with_granularity(Granularity::Superblock, 100).unwrap();
        ins(&mut c, sb(1), 40);
        ins(&mut c, sb(2), 40);
        c.link(sb(2), sb(1)).unwrap(); // survivor → victim link
                                       // Inserting 30 evicts sb1 (oldest); sb2 survives and must be
                                       // unpatched.
        let report = ins(&mut c, sb(3), 30);
        let ev = &report.evictions[0];
        assert_eq!(ev.evicted, vec![(sb(1), 40)]);
        assert_eq!(ev.unlinked, vec![(sb(1), 1)]);
        assert_eq!(c.stats().unlink_operations, 1);
        assert_eq!(c.stats().links_unlinked, 1);
        // The graph no longer records the dangling link.
        assert!(!c.link_graph().contains_link(sb(2), sb(1)));
    }

    #[test]
    fn links_between_covictims_are_free() {
        let mut c = CodeCache::with_granularity(Granularity::Superblock, 100).unwrap();
        ins(&mut c, sb(1), 50);
        ins(&mut c, sb(2), 50);
        c.link(sb(1), sb(2)).unwrap();
        c.link(sb(2), sb(1)).unwrap();
        // 100-byte insert evicts both in one invocation.
        let report = ins(&mut c, sb(3), 100);
        let ev = &report.evictions[0];
        assert_eq!(ev.evicted.len(), 2);
        assert!(ev.unlinked.is_empty());
        assert_eq!(ev.links_dropped_free, 2);
    }

    #[test]
    fn self_link_never_requires_unpatching() {
        let mut c = CodeCache::with_granularity(Granularity::Superblock, 50).unwrap();
        ins(&mut c, sb(1), 50);
        c.link(sb(1), sb(1)).unwrap();
        let report = ins(&mut c, sb(2), 50);
        let ev = &report.evictions[0];
        assert!(ev.unlinked.is_empty());
        assert_eq!(ev.links_dropped_free, 1);
    }

    #[test]
    fn manual_flush_reports_and_empties() {
        let mut c = CodeCache::with_granularity(Granularity::units(2), 200).unwrap();
        assert!(c.flush(&mut NullSink).is_none());
        ins(&mut c, sb(1), 50);
        ins(&mut c, sb(2), 50);
        let reports = c.flush_report();
        assert_eq!(reports.len(), 1, "bare cache flushes in one invocation");
        assert_eq!(reports[0].evicted.len(), 2);
        assert_eq!(c.resident_count(), 0);
        assert_eq!(c.used(), 0);
        assert_eq!(c.stats().eviction_invocations, 1);
    }

    #[test]
    fn high_water_marks_track_peaks() {
        let mut c = CodeCache::with_granularity(Granularity::Superblock, 100).unwrap();
        ins(&mut c, sb(1), 60);
        ins(&mut c, sb(2), 40);
        ins(&mut c, sb(3), 90); // evicts both
        let s = c.stats();
        assert_eq!(s.high_water_bytes, 100);
        assert_eq!(s.high_water_blocks, 2);
    }

    #[test]
    fn stats_bytes_accounting_balances() {
        let mut c = CodeCache::with_granularity(Granularity::units(4), 400).unwrap();
        for i in 0..50 {
            let size = 30 + (i % 5) as u32 * 10;
            c.access_or_insert_quiet(InsertRequest::new(sb(i), size))
                .unwrap();
        }
        let s = c.stats();
        assert_eq!(s.bytes_inserted, s.bytes_evicted + c.used());
    }

    #[test]
    fn replace_org_keeps_stats_and_the_seen_set() {
        let mut c = CodeCache::with_granularity(Granularity::Superblock, 100).unwrap();
        ins(&mut c, sb(1), 60);
        c.access(sb(1));
        c.flush(&mut NullSink).unwrap();
        let stats_before = *c.stats();
        c.replace_org(Box::new(FineFifo::new(200).unwrap()));
        assert_eq!(c.stats(), &stats_before, "statistics must survive");
        assert_eq!(c.capacity(), 200);
        // The seen set survives: re-requesting sb1 is a capacity miss,
        // not a cold one.
        assert_eq!(c.access(sb(1)), AccessResult::CapacityMiss);
    }

    #[test]
    #[should_panic(expected = "replace_org requires an empty cache")]
    fn replace_org_rejects_a_nonempty_cache() {
        let mut c = CodeCache::with_granularity(Granularity::Superblock, 100).unwrap();
        ins(&mut c, sb(1), 60);
        c.replace_org(Box::new(FineFifo::new(200).unwrap()));
    }

    #[test]
    fn observer_sees_settled_stream() {
        use std::sync::{Arc, Mutex};
        let events: Arc<Mutex<Vec<CacheEvent>>> = Arc::default();
        let mut c = CodeCache::with_granularity(Granularity::Superblock, 100).unwrap();
        let sink = Arc::clone(&events);
        c.set_observer(Box::new(move |ev: CacheEvent| {
            sink.lock().unwrap().push(ev);
        }));
        c.access(sb(1));
        ins(&mut c, sb(1), 60);
        c.access(sb(1));
        ins(&mut c, sb(2), 60); // evicts sb1
        let log = events.lock().unwrap();
        assert_eq!(
            log.as_slice(),
            &[
                CacheEvent::Miss {
                    id: sb(1),
                    cold: true
                },
                CacheEvent::Inserted {
                    id: sb(1),
                    size: 60
                },
                CacheEvent::Hit { id: sb(1) },
                CacheEvent::EvictionBegin,
                CacheEvent::Evicted {
                    id: sb(1),
                    size: 60
                },
                CacheEvent::EvictionEnd {
                    bytes: 60,
                    links_dropped_free: 0
                },
                CacheEvent::Inserted {
                    id: sb(2),
                    size: 60
                },
            ]
        );
    }

    #[test]
    fn observer_sees_unlink_events_with_real_drop_counts() {
        use std::sync::{Arc, Mutex};
        let events: Arc<Mutex<Vec<CacheEvent>>> = Arc::default();
        let mut c = CodeCache::with_granularity(Granularity::Superblock, 100).unwrap();
        ins(&mut c, sb(1), 40);
        ins(&mut c, sb(2), 40);
        c.link(sb(2), sb(1)).unwrap(); // survivor → victim
        c.link(sb(1), sb(1)).unwrap(); // self link, dropped free
        let sink = Arc::clone(&events);
        c.set_observer(Box::new(move |ev: CacheEvent| {
            sink.lock().unwrap().push(ev);
        }));
        ins(&mut c, sb(3), 30); // evicts sb1
        let log = events.lock().unwrap();
        assert_eq!(
            log.as_slice(),
            &[
                CacheEvent::EvictionBegin,
                CacheEvent::Evicted {
                    id: sb(1),
                    size: 40
                },
                CacheEvent::Unlinked {
                    id: sb(1),
                    links: 1
                },
                CacheEvent::EvictionEnd {
                    bytes: 40,
                    links_dropped_free: 1
                },
                CacheEvent::Inserted {
                    id: sb(3),
                    size: 30
                },
            ]
        );
    }

    #[test]
    fn code_cache_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<CodeCache>();
    }
}
