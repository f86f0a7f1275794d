//! A fine-grained LRU organization — the fragmenting baseline of §3.3.
//!
//! The paper argues that LRU-like policies are a poor fit for code caches:
//! because entries are variable-sized and eviction order is *not* address
//! order, freeing the least-recently-used block leaves holes that incoming
//! blocks may not fit, so either additional blocks must be sacrificed or
//! the cache must be compacted — and compaction means re-patching every
//! link. This implementation makes that argument quantitative: it manages
//! a real address space with a free-hole list and counts
//! [`LruCache::fragmentation_stalls`] — insertions that evicted *more*
//! bytes than requested purely because the free bytes were not contiguous.

use crate::error::CacheError;
use crate::events::{CacheEvent, EventSink, EvictionScope};
use crate::idmap::IdMap;
use crate::ids::{Granularity, SuperblockId, UnitId};
use crate::org::CacheOrg;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy)]
struct Placement {
    addr: u64,
    size: u32,
    stamp: u64,
}

/// Least-recently-used organization with explicit address management.
/// See the module docs.
#[derive(Debug, Clone)]
pub struct LruCache {
    capacity: u64,
    used: u64,
    clock: u64,
    resident: IdMap<Placement>,
    /// Recency index: stamp → block (stamps are unique).
    by_recency: BTreeMap<u64, SuperblockId>,
    /// Free holes: start address → length, kept coalesced.
    holes: BTreeMap<u64, u64>,
    fragmentation_stalls: u64,
}

impl LruCache {
    /// Creates an LRU cache of `capacity` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::ZeroCapacity`] if `capacity == 0`.
    pub fn new(capacity: u64) -> Result<LruCache, CacheError> {
        if capacity == 0 {
            return Err(CacheError::ZeroCapacity);
        }
        let mut holes = BTreeMap::new();
        holes.insert(0, capacity);
        Ok(LruCache {
            capacity,
            used: 0,
            clock: 0,
            resident: IdMap::default(),
            by_recency: BTreeMap::new(),
            holes,
            fragmentation_stalls: 0,
        })
    }

    /// Insertions that had to over-evict because free space was
    /// fragmented (enough free bytes existed, but no hole was large
    /// enough). This is the cost §3.3 warns about.
    #[must_use]
    pub fn fragmentation_stalls(&self) -> u64 {
        self.fragmentation_stalls
    }

    fn free_bytes(&self) -> u64 {
        self.capacity - self.used
    }

    /// First-fit search for a hole of at least `size` bytes.
    fn find_hole(&self, size: u32) -> Option<u64> {
        self.holes
            .iter()
            .find(|&(_, &len)| len >= u64::from(size))
            .map(|(&addr, _)| addr)
    }

    /// Carves `size` bytes from the hole at `addr`.
    fn take_from_hole(&mut self, addr: u64, size: u32) {
        let len = self.holes.remove(&addr).expect("hole must exist");
        debug_assert!(len >= u64::from(size));
        if len > u64::from(size) {
            self.holes
                .insert(addr + u64::from(size), len - u64::from(size));
        }
    }

    /// Returns `[addr, addr+len)` to the free list, coalescing neighbours.
    fn free_range(&mut self, addr: u64, len: u64) {
        let mut start = addr;
        let mut length = len;
        // Coalesce with the predecessor.
        if let Some((&p_addr, &p_len)) = self.holes.range(..addr).next_back() {
            if p_addr + p_len == addr {
                self.holes.remove(&p_addr);
                start = p_addr;
                length += p_len;
            }
        }
        // Coalesce with the successor.
        if let Some(&s_len) = self.holes.get(&(addr + len)) {
            self.holes.remove(&(addr + len));
            length += s_len;
        }
        self.holes.insert(start, length);
    }

    fn evict_lru(&mut self) -> Option<(SuperblockId, u32)> {
        let (&stamp, &id) = self.by_recency.iter().next()?;
        self.by_recency.remove(&stamp);
        let p = self.resident.remove(&id).expect("recency index is in sync");
        self.used -= u64::from(p.size);
        self.free_range(p.addr, u64::from(p.size));
        Some((id, p.size))
    }
}

impl CacheOrg for LruCache {
    fn capacity(&self) -> u64 {
        self.capacity
    }

    fn used(&self) -> u64 {
        self.used
    }

    fn contains(&self, id: SuperblockId) -> bool {
        self.resident.contains_key(&id)
    }

    fn unit_of(&self, id: SuperblockId) -> Option<UnitId> {
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
        if u64::from(size) > self.capacity {
            return Err(CacheError::BlockTooLarge {
                id,
                size,
                max: self.capacity,
            });
        }
        let addr = if let Some(addr) = self.find_hole(size) {
            addr
        } else {
            // Evict LRU blocks until some hole fits the request.
            let had_enough_bytes = self.free_bytes() >= u64::from(size);
            let mut scope = EvictionScope::new(sink);
            let addr = loop {
                let (vid, vsize) = self
                    .evict_lru()
                    .expect("a nonempty cache always has an LRU victim");
                scope.evict(vid, vsize);
                if let Some(addr) = self.find_hole(size) {
                    break addr;
                }
            };
            scope.finish();
            if had_enough_bytes {
                self.fragmentation_stalls += 1;
            }
            addr
        };
        self.take_from_hole(addr, size);
        self.clock += 1;
        self.resident.insert(
            id,
            Placement {
                addr,
                size,
                stamp: self.clock,
            },
        );
        self.by_recency.insert(self.clock, id);
        self.used += u64::from(size);
        sink.event(CacheEvent::Inserted { id, size });
        Ok(())
    }

    fn resident_count(&self) -> usize {
        self.resident.len()
    }

    fn resident_entries(&self) -> Vec<(SuperblockId, u32)> {
        // Deterministic order: LRU → MRU.
        self.by_recency
            .values()
            .map(|id| (*id, self.resident[id].size))
            .collect()
    }

    fn granularity(&self) -> Granularity {
        Granularity::Superblock
    }

    fn flush_events(&mut self, sink: &mut dyn EventSink) -> bool {
        let mut scope = EvictionScope::new(sink);
        for (&id, p) in self.by_recency.values().map(|id| (id, &self.resident[id])) {
            scope.evict(id, p.size);
        }
        self.resident.clear();
        self.by_recency.clear();
        self.used = 0;
        self.holes.clear();
        self.holes.insert(0, self.capacity);
        scope.finish()
    }

    fn note_hit(&mut self, id: SuperblockId) {
        if let Some(p) = self.resident.get_mut(&id) {
            self.by_recency.remove(&p.stamp);
            self.clock += 1;
            p.stamp = self.clock;
            self.by_recency.insert(self.clock, id);
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
    fn conformance_lru() {
        conformance(Box::new(LruCache::new(1024).unwrap()));
    }

    #[test]
    fn evicts_least_recently_used_not_oldest() {
        let mut c = LruCache::new(100).unwrap();
        c.insert(sb(1), 40).unwrap();
        c.insert(sb(2), 40).unwrap();
        // Touch sb1 so sb2 becomes LRU.
        c.note_hit(sb(1));
        let r = c.insert(sb(3), 40).unwrap();
        let victims: Vec<u64> = r.evictions[0].evicted.iter().map(|&(id, _)| id.0).collect();
        assert_eq!(victims, vec![2], "sb2 was least recently used");
        assert!(c.contains(sb(1)));
    }

    #[test]
    fn holes_coalesce() {
        let mut c = LruCache::new(120).unwrap();
        c.insert(sb(1), 40).unwrap();
        c.insert(sb(2), 40).unwrap();
        c.insert(sb(3), 40).unwrap();
        // Evict everything via flush; the free list must be one hole again.
        c.flush_all().unwrap();
        assert_eq!(c.holes.len(), 1);
        assert_eq!(c.holes[&0], 120);
        // And a full-capacity block must fit.
        assert!(c.insert(sb(4), 120).is_ok());
    }

    #[test]
    fn fragmentation_forces_over_eviction() {
        let mut c = LruCache::new(100).unwrap();
        // Layout: [a:40][b:20][c:40]
        c.insert(sb(1), 40).unwrap();
        c.insert(sb(2), 20).unwrap();
        c.insert(sb(3), 40).unwrap();
        // Make b LRU-first, then a, then c most recent.
        c.note_hit(sb(2));
        c.note_hit(sb(1));
        c.note_hit(sb(3));
        // Evicting sb2 (LRU) frees a 20-byte hole at offset 40 — not enough
        // for 30 bytes, and not adjacent to anything free, so sb1 must also
        // go even though total free bytes (20) were "close".
        let r = c.insert(sb(4), 30).unwrap();
        assert!(r.evictions[0].evicted.len() >= 2);
        assert_eq!(
            c.fragmentation_stalls(),
            0,
            "free bytes were insufficient anyway"
        );
    }

    #[test]
    fn fragmentation_stall_counted_when_bytes_sufficed() {
        let mut c = LruCache::new(120).unwrap();
        // [a:40][b:20][c:40] + 20-byte tail hole.
        c.insert(sb(1), 40).unwrap();
        c.insert(sb(2), 20).unwrap();
        c.insert(sb(3), 40).unwrap();
        // Make b LRU and evict it: free space is now 20 (middle) + 20
        // (tail) = 40 bytes, but scattered.
        c.note_hit(sb(1));
        c.note_hit(sb(3));
        let (victim, _) = c.evict_lru().unwrap();
        assert_eq!(victim, sb(2));
        assert_eq!(c.free_bytes(), 40);
        // d needs 40: free bytes suffice but no hole fits ⇒ stall, and a
        // (the next LRU) is sacrificed too.
        let r = c.insert(sb(4), 40).unwrap();
        assert_eq!(c.fragmentation_stalls(), 1);
        assert_eq!(r.evictions[0].evicted, vec![(sb(1), 40)]);
    }

    #[test]
    fn note_hit_on_absent_block_is_harmless() {
        let mut c = LruCache::new(100).unwrap();
        c.note_hit(sb(99));
        assert_eq!(c.resident_count(), 0);
    }
}
