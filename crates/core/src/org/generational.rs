//! Generational code-cache management (Hazelwood & Smith, MICRO 2003 —
//! reference 15 of the reproduced paper, and the "multiple superblock
//! code caches distinguished by the lifetimes of the superblocks they
//! contain" of §2.2).
//!
//! The cache is split into a **nursery** and a **tenured** region.
//! Freshly translated superblocks enter the nursery; when the nursery
//! overflows, its oldest blocks are evicted in FIFO order — but blocks
//! that were *re-executed* while in the nursery have proven useful and are
//! **promoted** to the tenured region instead of dying. The tenured
//! region itself is a fine-grained FIFO. Short-lived code (initialization,
//! error paths) thus never pollutes the long-lived region, while the hot
//! kernel stops cycling through evictions.

use crate::error::CacheError;
use crate::events::{CacheEvent, EventSink, EvictionScope};
use crate::idmap::IdMap;
use crate::ids::{Granularity, SuperblockId, UnitId};
use crate::org::CacheOrg;
use std::collections::VecDeque;

/// Which region a block lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Region {
    Nursery,
    Tenured,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    size: u32,
    region: Region,
    /// Hits received while in the nursery.
    nursery_hits: u32,
}

/// Two-generation cache organization. See the module docs.
#[derive(Debug)]
pub struct Generational {
    nursery_capacity: u64,
    tenured_capacity: u64,
    nursery_used: u64,
    tenured_used: u64,
    /// FIFO order within each region.
    nursery_queue: VecDeque<SuperblockId>,
    tenured_queue: VecDeque<SuperblockId>,
    resident: IdMap<Entry>,
    /// Nursery hits required for promotion.
    promote_threshold: u32,
    promotions: u64,
}

impl Generational {
    /// Default fraction of capacity given to the nursery.
    pub const DEFAULT_NURSERY_FRACTION: f64 = 0.25;
    /// Default nursery hits required for promotion.
    pub const DEFAULT_PROMOTE_THRESHOLD: u32 = 1;

    /// Creates a generational cache of `capacity` bytes with the default
    /// nursery fraction and promotion threshold.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::ZeroCapacity`] if `capacity == 0`.
    pub fn new(capacity: u64) -> Result<Generational, CacheError> {
        Generational::with_config(
            capacity,
            Self::DEFAULT_NURSERY_FRACTION,
            Self::DEFAULT_PROMOTE_THRESHOLD,
        )
    }

    /// Creates a generational cache with an explicit nursery fraction and
    /// promotion threshold.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::ZeroCapacity`] if `capacity == 0`.
    ///
    /// # Panics
    ///
    /// Panics if `nursery_fraction` is not in `(0, 1)` or
    /// `promote_threshold == 0`.
    pub fn with_config(
        capacity: u64,
        nursery_fraction: f64,
        promote_threshold: u32,
    ) -> Result<Generational, CacheError> {
        if capacity == 0 {
            return Err(CacheError::ZeroCapacity);
        }
        assert!(
            nursery_fraction > 0.0 && nursery_fraction < 1.0,
            "nursery fraction must be in (0, 1)"
        );
        assert!(promote_threshold > 0, "promotion threshold must be nonzero");
        let nursery_capacity = ((capacity as f64 * nursery_fraction) as u64).max(1);
        Ok(Generational {
            nursery_capacity,
            tenured_capacity: capacity - nursery_capacity,
            nursery_used: 0,
            tenured_used: 0,
            nursery_queue: VecDeque::new(),
            tenured_queue: VecDeque::new(),
            resident: IdMap::default(),
            promote_threshold,
            promotions: 0,
        })
    }

    /// Blocks promoted nursery → tenured so far.
    #[must_use]
    pub fn promotions(&self) -> u64 {
        self.promotions
    }

    /// Nursery capacity in bytes.
    #[must_use]
    pub fn nursery_capacity(&self) -> u64 {
        self.nursery_capacity
    }

    /// Evicts from the tenured FIFO until `needed` bytes fit there,
    /// streaming victims into `scope`.
    fn make_tenured_room(&mut self, needed: u64, scope: &mut EvictionScope<'_>) {
        while self.tenured_used + needed > self.tenured_capacity {
            let Some(old) = self.tenured_queue.pop_front() else {
                break;
            };
            let entry = self.resident.remove(&old).expect("tenured queue in sync");
            self.tenured_used -= u64::from(entry.size);
            scope.evict(old, entry.size);
        }
    }

    /// Makes room in the nursery: oldest blocks either die or get
    /// promoted, possibly cascading evictions in the tenured region. All
    /// victims stream into `scope` (which may end up empty — the whole
    /// overflow may promote).
    fn make_nursery_room(&mut self, needed: u64, scope: &mut EvictionScope<'_>) {
        while self.nursery_used + needed > self.nursery_capacity {
            let Some(old) = self.nursery_queue.pop_front() else {
                break;
            };
            let entry = *self.resident.get(&old).expect("nursery queue in sync");
            self.nursery_used -= u64::from(entry.size);
            let promote = entry.nursery_hits >= self.promote_threshold
                && u64::from(entry.size) <= self.tenured_capacity;
            if promote {
                self.make_tenured_room(u64::from(entry.size), scope);
                let e = self.resident.get_mut(&old).expect("still present");
                e.region = Region::Tenured;
                self.tenured_queue.push_back(old);
                self.tenured_used += u64::from(entry.size);
                self.promotions += 1;
            } else {
                self.resident.remove(&old);
                scope.evict(old, entry.size);
            }
        }
    }
}

impl CacheOrg for Generational {
    fn capacity(&self) -> u64 {
        self.nursery_capacity + self.tenured_capacity
    }

    fn used(&self) -> u64 {
        self.nursery_used + self.tenured_used
    }

    fn contains(&self, id: SuperblockId) -> bool {
        self.resident.contains_key(&id)
    }

    fn unit_of(&self, id: SuperblockId) -> Option<UnitId> {
        // Per-superblock eviction in both regions: each block is its own
        // unit (links need unpatching regardless of region).
        self.resident.get(&id).map(|_| UnitId(id.0))
    }

    fn insert_events(
        &mut self,
        id: SuperblockId,
        size: u32,
        _partner: Option<SuperblockId>,
        sink: &mut dyn EventSink,
    ) -> Result<(), CacheError> {
        if self.resident.contains_key(&id) {
            return Err(CacheError::AlreadyResident(id));
        }
        if size == 0 {
            return Err(CacheError::ZeroSize(id));
        }
        if u64::from(size) > self.nursery_capacity {
            return Err(CacheError::BlockTooLarge {
                id,
                size,
                max: self.nursery_capacity,
            });
        }
        let mut scope = EvictionScope::new(sink);
        self.make_nursery_room(u64::from(size), &mut scope);
        scope.finish();
        self.nursery_queue.push_back(id);
        self.nursery_used += u64::from(size);
        self.resident.insert(
            id,
            Entry {
                size,
                region: Region::Nursery,
                nursery_hits: 0,
            },
        );
        sink.event(CacheEvent::Inserted { id, size });
        Ok(())
    }

    fn resident_count(&self) -> usize {
        self.resident.len()
    }

    fn resident_entries(&self) -> Vec<(SuperblockId, u32)> {
        // Tenured (oldest first), then nursery (oldest first).
        self.tenured_queue
            .iter()
            .chain(self.nursery_queue.iter())
            .map(|id| (*id, self.resident[id].size))
            .collect()
    }

    fn granularity(&self) -> Granularity {
        Granularity::Superblock
    }

    fn flush_events(&mut self, sink: &mut dyn EventSink) -> bool {
        let mut scope = EvictionScope::new(sink);
        // Tenured (oldest first), then nursery — the enumeration order.
        for &id in self.tenured_queue.iter().chain(self.nursery_queue.iter()) {
            scope.evict(id, self.resident[&id].size);
        }
        self.resident.clear();
        self.nursery_queue.clear();
        self.tenured_queue.clear();
        self.nursery_used = 0;
        self.tenured_used = 0;
        scope.finish()
    }

    fn note_hit(&mut self, id: SuperblockId) {
        if let Some(e) = self.resident.get_mut(&id) {
            if e.region == Region::Nursery {
                e.nursery_hits = e.nursery_hits.saturating_add(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::conformance;

    fn sb(n: u64) -> SuperblockId {
        SuperblockId(n)
    }

    #[test]
    fn conformance_generational() {
        conformance(Box::new(Generational::new(1024).unwrap()));
    }

    #[test]
    fn reused_blocks_get_promoted_cold_blocks_die() {
        // Nursery 100 bytes, tenured 300.
        let mut c = Generational::with_config(400, 0.25, 1).unwrap();
        c.insert(sb(1), 50).unwrap();
        c.insert(sb(2), 50).unwrap();
        c.note_hit(sb(1)); // sb1 proves itself; sb2 stays cold
                           // Overflow the nursery: sb1 promotes, sb2 dies.
        let r = c.insert(sb(3), 60).unwrap();
        assert!(c.contains(sb(1)), "hot block must be promoted");
        assert!(!c.contains(sb(2)), "cold block must die");
        assert_eq!(c.promotions(), 1);
        let evicted: Vec<_> = r.evictions[0].evicted.iter().map(|&(id, _)| id).collect();
        assert_eq!(evicted, vec![sb(2)]);
    }

    #[test]
    fn tenured_overflow_cascades_fifo() {
        // Nursery 100, tenured 100.
        let mut c = Generational::with_config(200, 0.5, 1).unwrap();
        // Promote three 50-byte blocks one after another; the third
        // promotion must evict the first from tenured.
        for i in 0..3u64 {
            c.insert(sb(i), 50).unwrap();
            c.note_hit(sb(i));
            // Push two fillers to force the hot block out of the nursery.
            c.insert(sb(100 + i * 2), 50).unwrap();
            c.insert(sb(101 + i * 2), 50).unwrap();
        }
        assert_eq!(c.promotions(), 3);
        assert!(!c.contains(sb(0)), "tenured FIFO evicted the oldest");
        assert!(c.contains(sb(1)));
        assert!(c.contains(sb(2)));
    }

    #[test]
    fn promotion_threshold_is_respected() {
        let mut c = Generational::with_config(400, 0.25, 3).unwrap();
        c.insert(sb(1), 50).unwrap();
        c.note_hit(sb(1));
        c.note_hit(sb(1)); // only 2 hits < threshold 3
        c.insert(sb(2), 60).unwrap(); // overflows the 100-byte nursery
        assert!(!c.contains(sb(1)), "2 hits must not promote at threshold 3");
        assert_eq!(c.promotions(), 0);
    }

    #[test]
    fn used_accounting_spans_both_regions() {
        let mut c = Generational::with_config(400, 0.25, 1).unwrap();
        c.insert(sb(1), 50).unwrap();
        c.note_hit(sb(1));
        c.insert(sb(2), 60).unwrap(); // promotes sb1
        assert_eq!(c.used(), 110);
        assert_eq!(c.resident_count(), 2);
        let entries = c.resident_entries();
        assert_eq!(entries.len(), 2);
    }

    #[test]
    #[should_panic(expected = "nursery fraction")]
    fn bad_fraction_panics() {
        let _ = Generational::with_config(100, 1.5, 1);
    }
}
