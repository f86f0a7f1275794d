//! Sharded multi-cache serving: [`ShardedCache`].
//!
//! The ROADMAP's next scale step is serving one workload across several
//! [`CodeCache`] instances — toward multi-tenant code caching, where each
//! guest (or each hash slice of a shared superblock universe) gets its
//! own eviction domain. A `ShardedCache` consistent-hashes
//! [`SuperblockId`]s over N shards with Lamping & Veach's jump hash, so
//! a block's home shard is a pure function of `(id, shard_count)` and
//! every run is reproducible.
//!
//! **Intra-shard** links live in the owning shard's [`LinkGraph`] and
//! patch exactly as in a bare cache. **Cross-shard** links are
//! always-indirect (a patched jump into another eviction domain could
//! dangle at any time, so real systems route them through stubs); they
//! are tracked in a shard-aware link graph here, and when their target
//! is evicted the stub redirect is charged through the paper's Eq. 4
//! model: the eviction's `Unlinked` event is merged with the cross-shard
//! fan-in (one back-pointer walk per victim covers both tables), while a
//! victim with *only* cross-shard fan-in pays a standalone unlink
//! operation. Links whose *source* is evicted die with it, for free.
//!
//! The type is plain single-threaded state — one [`CodeCache`] lane per
//! shard, the cross-shard link graph and its bookkeeping, `&mut self`
//! methods, no locks. [`crate::concurrent`] serves many tenants by
//! giving each its own `ShardedCache` behind one tenant lock, so the
//! sharded and concurrent paths run the same routing and cross-shard
//! arithmetic and cannot drift apart. The type implements
//! [`CacheSession`], so `cce_sim::simulator` drives a sharded cache and
//! a bare [`CodeCache`] through the same trait. With N=1 every request
//! passes straight through to the one lane and the event stream is
//! byte-identical to a bare cache (enforced by
//! [`crate::testutil::assert_sessions_equivalent`] and the conformance
//! suite in `tests/shard_conformance.rs`).

use crate::cache::{AccessResult, CodeCache, InsertSummary};
use crate::error::CacheError;
use crate::events::{CacheEvent, EventSink, NullSink};
use crate::idmap::IdMap;
use crate::ids::{Granularity, SuperblockId};
use crate::links::LinkGraph;
use crate::org::CacheOrg;
use crate::session::{AccessOutcome, CacheSession, InsertRequest};
use crate::stats::CacheStats;

/// Jump consistent hash (Lamping & Veach, 2014): maps `key` to a bucket
/// in `0..buckets` with no lookup tables and minimal reshuffling when
/// the bucket count changes. `buckets` must be at least 1.
#[must_use]
pub fn jump_hash(mut key: u64, buckets: u32) -> u32 {
    let mut b: i64 = 0;
    let mut j: i64 = 0;
    while j < i64::from(buckets) {
        b = j;
        key = key.wrapping_mul(2_862_933_555_777_941_757).wrapping_add(1);
        let shifted = (key >> 33).wrapping_add(1);
        j = ((b.wrapping_add(1) as f64) * ((1u64 << 31) as f64 / shifted as f64)) as i64;
    }
    b as u32
}

/// Splits `total_capacity` bytes as evenly as possible over
/// `shard_count` shards: every shard gets `total / n` bytes and the
/// first `total % n` shards get one extra, so the sum is exactly the
/// total and a sharding sweep compares at **fixed total capacity**.
/// Returns an empty vector when `shard_count` is zero.
#[must_use]
pub fn shard_capacities(total_capacity: u64, shard_count: u32) -> Vec<u64> {
    let n = u64::from(shard_count);
    if n == 0 {
        return Vec::new();
    }
    let base = total_capacity / n;
    let remainder = total_capacity % n;
    (0..n).map(|i| base + u64::from(i < remainder)).collect()
}

/// Cross-shard bookkeeping the per-shard statistics cannot see: the
/// shard-aware link graph's contribution to link creation and Eq. 4
/// eviction charges. Folded into stats snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct CrossShardExtras {
    links_created: u64,
    unlink_operations: u64,
    links_unlinked: u64,
    links_dropped_free: u64,
}

impl CrossShardExtras {
    /// Adds the charges one wrapped lane operation accumulated.
    fn absorb(&mut self, wrapper: &CrossShardSink<'_>) {
        self.unlink_operations += u64::from(wrapper.unlink_operations);
        self.links_unlinked += wrapper.links_unlinked;
        self.links_dropped_free += wrapper.links_dropped_free;
    }
}

/// Rewrites one shard's settled event stream with cross-shard link
/// accounting before forwarding it to the caller's sink.
///
/// Per victim: cross-shard *incoming* links come from blocks in other
/// shards (which necessarily survive this shard's invocation), so they
/// are Eq. 4 charges — merged into the shard's own `Unlinked` event when
/// one follows, or emitted standalone (one extra unlink operation)
/// otherwise. Cross-shard *outgoing* links die with the victim, free.
struct CrossShardSink<'a> {
    inner: &'a mut dyn EventSink,
    xlinks: &'a mut LinkGraph,
    unlink_operations: u32,
    links_unlinked: u64,
    links_dropped_free: u64,
    /// Victim with cross-shard fan-in, awaiting a possible merge with
    /// the shard's own `Unlinked` event for the same block.
    pending: Option<(SuperblockId, u32)>,
    /// Cross-shard links dropped free so far in the open invocation.
    invocation_dropped: u64,
}

impl<'a> CrossShardSink<'a> {
    fn new(inner: &'a mut dyn EventSink, xlinks: &'a mut LinkGraph) -> CrossShardSink<'a> {
        CrossShardSink {
            inner,
            xlinks,
            unlink_operations: 0,
            links_unlinked: 0,
            links_dropped_free: 0,
            pending: None,
            invocation_dropped: 0,
        }
    }

    /// Emits the pending standalone `Unlinked`: the victim had cross-
    /// shard fan-in but no intra-shard unlink work to merge with, so the
    /// back-pointer walk is a fresh Eq. 4 operation.
    fn flush_pending(&mut self) {
        if let Some((id, links)) = self.pending.take() {
            self.unlink_operations += 1;
            self.links_unlinked += u64::from(links);
            self.inner.event(CacheEvent::Unlinked { id, links });
        }
    }
}

impl EventSink for CrossShardSink<'_> {
    fn event(&mut self, event: CacheEvent) {
        match event {
            CacheEvent::Evicted { id, size } => {
                self.flush_pending();
                let cross_in = self.xlinks.in_degree(id) as u32;
                let cross_out = self.xlinks.out_degree(id) as u64;
                self.xlinks.remove_block(id);
                self.invocation_dropped += cross_out;
                if cross_in > 0 {
                    self.pending = Some((id, cross_in));
                }
                self.inner.event(CacheEvent::Evicted { id, size });
            }
            CacheEvent::Unlinked { id, links } => match self.pending.take() {
                // One back-pointer walk per victim covers both tables:
                // merge, charging the cross links but no extra operation.
                Some((pid, cross)) if pid == id => {
                    self.links_unlinked += u64::from(cross);
                    self.inner.event(CacheEvent::Unlinked {
                        id,
                        links: links + cross,
                    });
                }
                other => {
                    self.pending = other;
                    self.flush_pending();
                    self.inner.event(CacheEvent::Unlinked { id, links });
                }
            },
            CacheEvent::EvictionEnd {
                bytes,
                links_dropped_free,
            } => {
                self.flush_pending();
                self.links_dropped_free += self.invocation_dropped;
                let links_dropped_free = links_dropped_free + self.invocation_dropped;
                self.invocation_dropped = 0;
                self.inner.event(CacheEvent::EvictionEnd {
                    bytes,
                    links_dropped_free,
                });
            }
            other => self.inner.event(other),
        }
    }
}

/// N independent [`CodeCache`] shards behind one [`CacheSession`]
/// surface, with consistent-hash routing and cross-shard link
/// accounting.
#[derive(Debug)]
pub struct ShardedCache {
    /// One private cache per shard; `lanes[s]` is the home of every id
    /// with `shard_of(id) == s`. Never empty.
    lanes: Vec<CodeCache>,
    /// Live cross-shard (always-indirect) links.
    xlinks: LinkGraph,
    extras: CrossShardExtras,
    /// Memo of [`ShardedCache::shard_of`], filled on an id's first
    /// routing, so the per-event path indexes instead of re-hashing.
    homes: IdMap<u32>,
}

impl ShardedCache {
    /// Wraps pre-built shards (use this for heterogeneous geometries or
    /// custom organizations per shard).
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::ZeroCapacity`] if `shards` is empty.
    pub fn new(shards: Vec<CodeCache>) -> Result<ShardedCache, CacheError> {
        if shards.is_empty() {
            return Err(CacheError::ZeroCapacity);
        }
        Ok(ShardedCache {
            lanes: shards,
            xlinks: LinkGraph::new(),
            extras: CrossShardExtras::default(),
            homes: IdMap::default(),
        })
    }

    /// Creates `shard_count` shards of granularity `g` splitting
    /// `total_capacity` bytes as evenly as possible (the first
    /// `total_capacity % shard_count` shards get the extra byte), so a
    /// sharding sweep compares at **fixed total capacity**.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::ZeroCapacity`] when `shard_count` is zero
    /// or a shard's slice rounds down to zero bytes, and propagates
    /// [`CacheError::TooManyUnits`] for invalid per-shard geometry.
    pub fn with_granularity(
        g: Granularity,
        total_capacity: u64,
        shard_count: u32,
    ) -> Result<ShardedCache, CacheError> {
        let capacities = shard_capacities(total_capacity, shard_count);
        let mut shards = Vec::with_capacity(capacities.len());
        for capacity in capacities {
            shards.push(CodeCache::with_granularity(g, capacity)?);
        }
        ShardedCache::new(shards)
    }

    /// The home shard of `id` — a pure function of the id and the shard
    /// count, so routing is reproducible across runs and worker counts.
    #[must_use]
    pub fn shard_of(&self, id: SuperblockId) -> usize {
        match self.homes.get(&id) {
            Some(&s) => s as usize,
            None => jump_hash(id.0, self.lanes.len() as u32) as usize,
        }
    }

    /// [`ShardedCache::shard_of`] through the memo, filling it on a
    /// miss: the one router of the `&mut self` paths.
    fn home(&mut self, id: SuperblockId) -> usize {
        if let Some(&s) = self.homes.get(&id) {
            return s as usize;
        }
        let s = jump_hash(id.0, self.lanes.len() as u32);
        self.homes.insert(id, s);
        s as usize
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.lanes.len()
    }

    /// One shard's cache, for inspection in tests and diagnostics.
    ///
    /// # Panics
    ///
    /// Panics if `s` is not below [`ShardedCache::shard_count`].
    #[must_use]
    pub fn shard(&self, s: usize) -> &CodeCache {
        &self.lanes[s]
    }

    /// Number of live cross-shard (always-indirect) links.
    #[must_use]
    pub fn cross_link_count(&self) -> u64 {
        self.xlinks.link_count()
    }

    /// Records a cross-shard link between two resident blocks: the one
    /// place cross-shard link creation is counted.
    fn add_cross_link(&mut self, from: SuperblockId, to: SuperblockId) -> bool {
        let new = self.xlinks.add_link(from, to);
        if new {
            self.extras.links_created += 1;
        }
        new
    }

    /// Capacity misses summed over the shards — the arbiter's ghost-hit
    /// signal.
    pub(crate) fn capacity_misses(&self) -> u64 {
        self.lanes.iter().map(|l| l.stats().capacity_misses).sum()
    }

    /// Re-sizes every shard to the pre-built organization at its index:
    /// flush (severing the shard's cross-shard links at honest Eq. 4
    /// cost), [`CodeCache::replace_org`] (statistics and the `seen` set
    /// survive), then re-insert the survivors in deterministic order.
    /// Returns `(blocks_reinserted, blocks_dropped)`.
    pub(crate) fn replace_orgs(&mut self, orgs: Vec<Box<dyn CacheOrg>>) -> (u64, u64) {
        let mut reinserted = 0u64;
        let mut dropped = 0u64;
        let mut discard = NullSink;
        for (lane, org) in self.lanes.iter_mut().zip(orgs) {
            let survivors = lane.org().resident_entries();
            let mut wrapper = CrossShardSink::new(&mut discard, &mut self.xlinks);
            lane.flush(&mut wrapper);
            self.extras.absorb(&wrapper);
            lane.replace_org(org);
            for (id, size) in survivors {
                // Re-inserted blocks carry no links yet, so a bare sink
                // is exact; a block that no longer fits is dropped.
                match lane.insert_request(InsertRequest::new(id, size), &mut NullSink) {
                    Ok(_) => reinserted += 1,
                    Err(_) => dropped += 1,
                }
            }
        }
        (reinserted, dropped)
    }
}

impl CacheSession for ShardedCache {
    fn access(&mut self, id: SuperblockId) -> AccessResult {
        let s = self.home(id);
        self.lanes[s].access(id)
    }

    fn access_or_insert(
        &mut self,
        req: InsertRequest,
        sink: &mut dyn EventSink,
    ) -> Result<AccessOutcome, CacheError> {
        let s = self.home(req.id);
        let access = self.lanes[s].access(req.id);
        if access.is_hit() {
            return Ok(AccessOutcome {
                access,
                inserted: None,
            });
        }
        // A hint routed to a different shard cannot inform placement in
        // this one; same-shard hints pass through untouched.
        let hint = req.hint.filter(|&h| self.home(h) == s);
        let mut wrapper = CrossShardSink::new(sink, &mut self.xlinks);
        let mut summary = self.lanes[s].insert_miss(
            InsertRequest::new(req.id, req.size).with_hint(hint),
            &mut wrapper,
        )?;
        summary.unlink_operations += wrapper.unlink_operations;
        summary.links_unlinked += wrapper.links_unlinked;
        self.extras.absorb(&wrapper);
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
        let s = self.home(id);
        let sf = from.map(|f| self.home(f));
        // A same-shard `from` is the lane's own business: its hint and
        // its chain are exactly a bare cache's. A cross-shard `from`
        // cannot inform placement, and its link is an `xlinks` entry.
        let local = from.filter(|_| sf == Some(s));
        let mut wrapper = CrossShardSink::new(sink, &mut self.xlinks);
        let mut outcome = self.lanes[s].transition(id, size, local, chain, &mut wrapper)?;
        // Only an insert settles events; a hit leaves `extras` unwritten.
        if let Some(summary) = outcome.inserted.as_mut() {
            summary.unlink_operations += wrapper.unlink_operations;
            summary.links_unlinked += wrapper.links_unlinked;
            self.extras.absorb(&wrapper);
        }
        if let (true, Some(from), Some(sf)) = (chain, from, sf) {
            if sf != s && self.lanes[sf].is_resident(from) && self.lanes[s].is_resident(id) {
                self.add_cross_link(from, id);
            }
        }
        Ok(outcome)
    }

    fn link(&mut self, from: SuperblockId, to: SuperblockId) -> Result<bool, CacheError> {
        let sf = self.home(from);
        let st = self.home(to);
        if sf == st {
            return self.lanes[sf].link(from, to);
        }
        if !self.lanes[sf].is_resident(from) {
            return Err(CacheError::NotResident(from));
        }
        if !self.lanes[st].is_resident(to) {
            return Err(CacheError::NotResident(to));
        }
        Ok(self.add_cross_link(from, to))
    }

    fn flush(&mut self, sink: &mut dyn EventSink) -> Option<InsertSummary> {
        let mut total: Option<InsertSummary> = None;
        // Shard-index order: each shard's flush settles its own links
        // and, via the wrapper, the cross-shard links its victims touch.
        for lane in &mut self.lanes {
            let mut wrapper = CrossShardSink::new(&mut *sink, &mut self.xlinks);
            if let Some(summary) = lane.flush(&mut wrapper) {
                self.extras.absorb(&wrapper);
                let tot = total.get_or_insert_with(InsertSummary::default);
                tot.padding += summary.padding;
                tot.evictions += summary.evictions;
                tot.blocks_evicted += summary.blocks_evicted;
                tot.bytes_evicted += summary.bytes_evicted;
                tot.unlink_operations += summary.unlink_operations + wrapper.unlink_operations;
                tot.links_unlinked += summary.links_unlinked + wrapper.links_unlinked;
            }
        }
        total
    }

    fn is_resident(&self, id: SuperblockId) -> bool {
        self.lanes[self.shard_of(id)].is_resident(id)
    }

    fn contains_link(&self, from: SuperblockId, to: SuperblockId) -> bool {
        let sf = self.shard_of(from);
        if sf == self.shard_of(to) {
            self.lanes[sf].link_graph().contains_link(from, to)
        } else {
            self.xlinks.contains_link(from, to)
        }
    }

    fn capacity(&self) -> u64 {
        self.lanes.iter().map(CodeCache::capacity).sum()
    }

    fn used(&self) -> u64 {
        self.lanes.iter().map(CodeCache::used).sum()
    }

    fn resident_count(&self) -> usize {
        self.lanes.iter().map(CodeCache::resident_count).sum()
    }

    fn granularity(&self) -> Granularity {
        self.lanes[0].granularity()
    }

    fn stats_snapshot(&self) -> CacheStats {
        let mut stats = CacheStats::new();
        for lane in &self.lanes {
            stats.merge(lane.stats());
        }
        // Cross-shard links span eviction domains, so they are
        // inter-unit by definition; the Eq. 4 charges join the per-shard
        // unlink counters. High-water marks stay per-shard maxima.
        stats.links_created += self.extras.links_created;
        stats.inter_unit_links_created += self.extras.links_created;
        stats.unlink_operations += self.extras.unlink_operations;
        stats.links_unlinked += self.extras.links_unlinked;
        stats.links_dropped_free += self.extras.links_dropped_free;
        stats
    }

    fn link_census(&self) -> (u64, u64) {
        let mut intra = 0;
        let mut inter = 0;
        for lane in &self.lanes {
            let (a, b) = lane.link_census();
            intra += a;
            inter += b;
        }
        (intra, inter + self.xlinks.link_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::EventBuffer;

    fn sb(n: u64) -> SuperblockId {
        SuperblockId(n)
    }

    #[test]
    fn jump_hash_is_stable_and_in_range() {
        for key in 0..256u64 {
            assert_eq!(jump_hash(key, 1), 0);
            for buckets in [2u32, 4, 8, 13] {
                let b = jump_hash(key, buckets);
                assert!(b < buckets);
                assert_eq!(b, jump_hash(key, buckets), "hash must be pure");
            }
        }
    }

    #[test]
    fn shard_capacities_give_the_remainder_to_the_first_shards() {
        assert_eq!(shard_capacities(10, 4), [3, 3, 2, 2]);
        assert_eq!(shard_capacities(8, 4), [2, 2, 2, 2]);
        assert!(shard_capacities(10, 0).is_empty());
    }

    #[test]
    fn jump_hash_moves_few_keys_when_growing() {
        // The consistent-hash property: growing 4 → 5 buckets relocates
        // roughly 1/5 of the keys, never a wholesale reshuffle.
        let moved = (0..1000u64)
            .filter(|&k| jump_hash(k, 4) != jump_hash(k, 5))
            .count();
        assert!((100..350).contains(&moved), "moved {moved}/1000");
    }

    #[test]
    fn routing_spreads_blocks_over_all_shards() {
        let mut sharded = ShardedCache::with_granularity(Granularity::units(2), 4096, 4).unwrap();
        for i in 0..64u64 {
            sharded
                .access_or_insert_quiet(InsertRequest::new(sb(i), 32))
                .unwrap();
        }
        for i in 0..sharded.shard_count() {
            let resident = sharded.shard(i).resident_count();
            assert!(resident > 0, "shard {i} got nothing");
        }
        assert_eq!(sharded.resident_count(), 64);
        assert_eq!(CacheSession::capacity(&sharded), 4096);
    }

    #[test]
    fn capacity_split_preserves_the_total() {
        let sharded = ShardedCache::with_granularity(Granularity::Flush, 1003, 8).unwrap();
        assert_eq!(CacheSession::capacity(&sharded), 1003);
        let sharded = ShardedCache::with_granularity(Granularity::Flush, 7, 8);
        assert_eq!(sharded.unwrap_err(), CacheError::ZeroCapacity);
        assert!(matches!(
            ShardedCache::with_granularity(Granularity::Flush, 100, 0),
            Err(CacheError::ZeroCapacity)
        ));
        assert!(matches!(
            ShardedCache::new(Vec::new()),
            Err(CacheError::ZeroCapacity)
        ));
    }

    /// Two ids that land on different shards at N=2, found by scanning.
    fn cross_pair(sharded: &ShardedCache) -> (SuperblockId, SuperblockId) {
        let a = sb(0);
        let other = (1..64)
            .map(sb)
            .find(|&b| sharded.shard_of(b) != sharded.shard_of(a))
            .expect("jump hash uses both shards");
        (a, other)
    }

    /// Sum of every shard's own (intra-shard) live link count.
    fn intra_link_count(sharded: &ShardedCache) -> u64 {
        (0..sharded.shard_count())
            .map(|i| sharded.shard(i).link_graph().link_count())
            .sum()
    }

    #[test]
    fn cross_shard_links_are_tracked_separately() {
        let mut sharded = ShardedCache::with_granularity(Granularity::units(2), 2048, 2).unwrap();
        let (a, b) = cross_pair(&sharded);
        sharded
            .access_or_insert_quiet(InsertRequest::new(a, 64))
            .unwrap();
        sharded
            .access_or_insert_quiet(InsertRequest::new(b, 64))
            .unwrap();
        assert!(sharded.link(a, b).unwrap());
        assert!(!sharded.link(a, b).unwrap(), "duplicate patch is a no-op");
        assert!(sharded.contains_link(a, b));
        assert!(!sharded.contains_link(b, a));
        assert_eq!(sharded.cross_link_count(), 1);
        let s = sharded.stats_snapshot();
        assert_eq!(s.links_created, 1);
        assert_eq!(s.inter_unit_links_created, 1);
        let (_, inter) = sharded.link_census();
        assert_eq!(inter, 1);
        // Both shards' own graphs stay empty.
        assert_eq!(intra_link_count(&sharded), 0);
    }

    #[test]
    fn cross_shard_link_requires_residency() {
        let mut sharded = ShardedCache::with_granularity(Granularity::units(2), 2048, 2).unwrap();
        let (a, b) = cross_pair(&sharded);
        sharded
            .access_or_insert_quiet(InsertRequest::new(a, 64))
            .unwrap();
        assert_eq!(sharded.link(a, b), Err(CacheError::NotResident(b)));
        assert_eq!(sharded.link(b, a), Err(CacheError::NotResident(b)));
    }

    #[test]
    fn evicting_a_cross_link_target_charges_eq4() {
        // Shard capacities of 100 bytes, superblock granularity: filling
        // the target's shard evicts it while the source survives in the
        // other shard, so the cross link must be charged.
        let mut sharded = ShardedCache::with_granularity(Granularity::Superblock, 200, 2).unwrap();
        let (a, b) = cross_pair(&sharded);
        sharded
            .access_or_insert_quiet(InsertRequest::new(a, 60))
            .unwrap();
        sharded
            .access_or_insert_quiet(InsertRequest::new(b, 60))
            .unwrap();
        sharded.link(a, b).unwrap(); // a → b crosses shards
        let victim_shard = sharded.shard_of(b);
        // Insert same-shard blocks at b until b is evicted.
        let mut buf = EventBuffer::new();
        let mut filler = 1000u64;
        while sharded.is_resident(b) {
            filler += 1;
            if sharded.shard_of(sb(filler)) != victim_shard {
                continue;
            }
            buf.clear();
            sharded
                .access_or_insert(InsertRequest::new(sb(filler), 60), &mut buf)
                .unwrap();
        }
        // The settled stream of the evicting insert carries the merged
        // cross-shard unlink.
        assert!(
            buf.events().iter().any(
                |e| matches!(e, CacheEvent::Unlinked { id, links } if *id == b && *links >= 1)
            ),
            "expected an Unlinked for {b}: {:?}",
            buf.events()
        );
        let s = sharded.stats_snapshot();
        assert!(s.unlink_operations >= 1);
        assert!(s.links_unlinked >= 1);
        assert!(sharded.is_resident(a), "source must have survived");
        assert_eq!(sharded.cross_link_count(), 0);
        // Link conservation across the shard boundary.
        let live = intra_link_count(&sharded) + sharded.cross_link_count();
        assert_eq!(
            s.links_created,
            s.links_unlinked + s.links_dropped_free + live
        );
    }

    #[test]
    fn evicting_a_cross_link_source_drops_it_free() {
        let mut sharded = ShardedCache::with_granularity(Granularity::Superblock, 200, 2).unwrap();
        let (a, b) = cross_pair(&sharded);
        sharded
            .access_or_insert_quiet(InsertRequest::new(a, 60))
            .unwrap();
        sharded
            .access_or_insert_quiet(InsertRequest::new(b, 60))
            .unwrap();
        sharded.link(a, b).unwrap();
        let source_shard = sharded.shard_of(a);
        let mut filler = 2000u64;
        while sharded.is_resident(a) {
            filler += 1;
            if sharded.shard_of(sb(filler)) != source_shard {
                continue;
            }
            sharded
                .access_or_insert_quiet(InsertRequest::new(sb(filler), 60))
                .unwrap();
        }
        let s = sharded.stats_snapshot();
        assert_eq!(s.unlink_operations, 0, "source death unpatches nothing");
        assert_eq!(s.links_dropped_free, 1);
        assert_eq!(sharded.cross_link_count(), 0);
    }

    #[test]
    fn flush_accounts_every_cross_link_exactly_once() {
        let mut sharded = ShardedCache::with_granularity(Granularity::units(2), 4096, 4).unwrap();
        for i in 0..32u64 {
            sharded
                .access_or_insert_quiet(InsertRequest::new(sb(i), 64))
                .unwrap();
        }
        for i in 0..32u64 {
            let (from, to) = (sb(i), sb((i + 7) % 32));
            if sharded.is_resident(from) && sharded.is_resident(to) {
                sharded.link(from, to).unwrap();
            }
        }
        let created = sharded.stats_snapshot().links_created;
        assert!(created > 0);
        let summary = sharded.flush(&mut NullSink).expect("cache was nonempty");
        assert!(summary.evictions >= 1);
        assert_eq!(CacheSession::used(&sharded), 0);
        assert_eq!(sharded.cross_link_count(), 0);
        let s = sharded.stats_snapshot();
        assert_eq!(s.links_created, s.links_unlinked + s.links_dropped_free);
    }

    #[test]
    fn sharded_cache_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<ShardedCache>();
    }
}
