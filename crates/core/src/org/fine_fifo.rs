//! The finest-grained FIFO organization (per-superblock eviction).
//!
//! The cache is a circular buffer of variable-size superblocks in insertion
//! order. When an insertion needs room, the *oldest* superblocks are
//! evicted — only as many as required to fit the incoming block — and the
//! whole batch counts as **one** eviction-mechanism invocation (the paper's
//! baseline for Figure 8). This is DynamoRIO's bounded-cache policy and the
//! circular-buffer scheme of Hazelwood & Smith (Interact 2002).
//!
//! Because insertion order equals address order in a circular buffer,
//! FIFO eviction causes no internal fragmentation (paper §3.3) — so, unlike
//! [`crate::LruCache`], this organization never pads.

use crate::error::CacheError;
use crate::events::{CacheEvent, EventSink, EvictionScope};
use crate::idmap::IdMap;
use crate::ids::{Granularity, SuperblockId, UnitId};
use crate::org::CacheOrg;
use std::collections::VecDeque;

/// Fine-grained FIFO (circular buffer) organization. See the module docs.
#[derive(Debug, Clone)]
pub struct FineFifo {
    capacity: u64,
    used: u64,
    /// Resident blocks, oldest first.
    queue: VecDeque<(SuperblockId, u32)>,
    resident: IdMap<u32>,
}

impl FineFifo {
    /// Creates a fine-grained FIFO cache of `capacity` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::ZeroCapacity`] if `capacity == 0`.
    pub fn new(capacity: u64) -> Result<FineFifo, CacheError> {
        if capacity == 0 {
            return Err(CacheError::ZeroCapacity);
        }
        Ok(FineFifo {
            capacity,
            used: 0,
            queue: VecDeque::new(),
            resident: IdMap::default(),
        })
    }

    /// The superblock that would be evicted next, if any.
    #[must_use]
    pub fn oldest(&self) -> Option<SuperblockId> {
        self.queue.front().map(|&(id, _)| id)
    }
}

impl CacheOrg for FineFifo {
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
        // Every superblock is its own eviction unit.
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
        let mut scope = EvictionScope::new(sink);
        while self.used + u64::from(size) > self.capacity {
            let (old, old_size) = self
                .queue
                .pop_front()
                .expect("used > 0 implies nonempty queue");
            self.resident.remove(&old);
            self.used -= u64::from(old_size);
            scope.evict(old, old_size);
        }
        scope.finish();
        self.queue.push_back((id, size));
        self.resident.insert(id, size);
        self.used += u64::from(size);
        sink.event(CacheEvent::Inserted { id, size });
        Ok(())
    }

    fn resident_count(&self) -> usize {
        self.resident.len()
    }

    fn resident_entries(&self) -> Vec<(SuperblockId, u32)> {
        self.queue.iter().copied().collect()
    }

    fn granularity(&self) -> Granularity {
        Granularity::Superblock
    }

    fn flush_events(&mut self, sink: &mut dyn EventSink) -> bool {
        let mut scope = EvictionScope::new(sink);
        for &(id, size) in &self.queue {
            scope.evict(id, size);
        }
        self.queue.clear();
        self.resident.clear();
        self.used = 0;
        scope.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::conformance;

    #[test]
    fn conformance_fine_fifo() {
        conformance(Box::new(FineFifo::new(1024).unwrap()));
    }

    #[test]
    fn evicts_minimum_necessary_in_fifo_order() {
        let mut c = FineFifo::new(100).unwrap();
        c.insert(SuperblockId(0), 40).unwrap();
        c.insert(SuperblockId(1), 40).unwrap();
        // 20 free; a 30-byte block evicts only sb0 (frees 40).
        let r = c.insert(SuperblockId(2), 30).unwrap();
        assert_eq!(r.evictions.len(), 1);
        assert_eq!(r.evictions[0].evicted, vec![(SuperblockId(0), 40)]);
        assert_eq!(c.used(), 70);
        // A 70-byte block fits after evicting just sb1 (40 frees enough).
        let r = c.insert(SuperblockId(3), 70).unwrap();
        assert_eq!(r.evictions.len(), 1);
        assert_eq!(r.evictions[0].evicted, vec![(SuperblockId(1), 40)]);
        assert!(c.contains(SuperblockId(2)));
        assert_eq!(c.used(), 100);
        // A full-capacity block evicts everything left in one invocation.
        let r = c.insert(SuperblockId(4), 100).unwrap();
        assert_eq!(r.evictions.len(), 1);
        assert_eq!(
            r.evictions[0].evicted,
            vec![(SuperblockId(2), 30), (SuperblockId(3), 70)]
        );
    }

    #[test]
    fn no_eviction_when_space_suffices() {
        let mut c = FineFifo::new(100).unwrap();
        let r = c.insert(SuperblockId(0), 100).unwrap();
        assert!(r.evictions.is_empty());
        assert_eq!(r.padding, 0);
    }

    #[test]
    fn oldest_tracks_fifo_head() {
        let mut c = FineFifo::new(100).unwrap();
        assert_eq!(c.oldest(), None);
        c.insert(SuperblockId(5), 10).unwrap();
        c.insert(SuperblockId(6), 10).unwrap();
        assert_eq!(c.oldest(), Some(SuperblockId(5)));
    }

    #[test]
    fn each_block_is_its_own_unit() {
        let mut c = FineFifo::new(100).unwrap();
        c.insert(SuperblockId(3), 10).unwrap();
        c.insert(SuperblockId(4), 10).unwrap();
        assert_ne!(c.unit_of(SuperblockId(3)), c.unit_of(SuperblockId(4)));
        assert_eq!(c.unit_of(SuperblockId(99)), None);
    }

    #[test]
    fn exact_fit_replacement_cycles() {
        let mut c = FineFifo::new(60).unwrap();
        for i in 0..100u64 {
            c.insert(SuperblockId(i), 20).unwrap();
            assert!(c.used() <= 60);
            assert!(c.resident_count() <= 3);
        }
        assert_eq!(c.resident_count(), 3);
    }
}
