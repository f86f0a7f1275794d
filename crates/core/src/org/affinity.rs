//! Link-affinity unit placement — the paper's §5.4 future work.
//!
//! > "Our future work includes a more detailed analysis … to determine
//! > whether a better method exists for determining the placement of
//! > superblocks into the cache units to minimize inter-unit superblock
//! > links while still achieving low miss rates."
//!
//! [`AffinityUnits`] is that experiment. Like [`crate::UnitFifo`] it
//! partitions the cache into N equal units flushed whole, but placement is
//! *not* strictly sequential: an insertion carrying a placement hint (the
//! chain partner that triggered the regeneration — see
//! [`CacheOrg::insert_with_hint`]) goes into the **partner's unit** when
//! there is room, keeping the about-to-be-patched link intra-unit. Hintless
//! insertions (and hinted ones that don't fit) fall back to the fill unit,
//! and when nothing fits anywhere the *least-recently-filled* unit is
//! flushed, FIFO over units.
//!
//! Compared against plain `UnitFifo` at the same unit count, this trades a
//! slightly less strict FIFO order for fewer inter-unit links — exactly
//! the trade-off the paper wanted explored (measured by the `future_work`
//! experiment and the ablation bench).

use crate::error::CacheError;
use crate::events::{CacheEvent, EventSink, EvictionScope};
use crate::idmap::IdMap;
use crate::ids::{Granularity, SuperblockId, UnitId};
use crate::org::CacheOrg;

#[derive(Debug, Default, Clone)]
struct Unit {
    blocks: Vec<(SuperblockId, u32)>,
    used: u64,
    /// Monotone sequence number of the last flush (0 = never): the unit
    /// flushed longest ago is the next FIFO victim.
    last_flush_seq: u64,
}

/// Unit-partitioned organization with link-affinity placement. See the
/// module docs.
#[derive(Debug)]
pub struct AffinityUnits {
    unit_capacity: u64,
    units: Vec<Unit>,
    resident: IdMap<usize>,
    used: u64,
    /// Default fill unit for hintless insertions.
    head: usize,
    flush_seq: u64,
    hinted_placements: u64,
    hint_hits: u64,
}

impl AffinityUnits {
    /// Creates a cache of `capacity` bytes split into `units` equal units.
    ///
    /// # Errors
    ///
    /// Same conditions as [`crate::UnitFifo::new`].
    pub fn new(capacity: u64, units: u32) -> Result<AffinityUnits, CacheError> {
        if capacity == 0 {
            return Err(CacheError::ZeroCapacity);
        }
        if units == 0 || u64::from(units) > capacity {
            return Err(CacheError::TooManyUnits { units, capacity });
        }
        Ok(AffinityUnits {
            unit_capacity: capacity / u64::from(units),
            units: vec![Unit::default(); units as usize],
            resident: IdMap::default(),
            used: 0,
            head: 0,
            flush_seq: 0,
            hinted_placements: 0,
            hint_hits: 0,
        })
    }

    /// Insertions that carried a placement hint.
    #[must_use]
    pub fn hinted_placements(&self) -> u64 {
        self.hinted_placements
    }

    /// Hinted insertions that were actually co-located with their partner.
    #[must_use]
    pub fn hint_hits(&self) -> u64 {
        self.hint_hits
    }

    /// Number of units.
    #[must_use]
    pub fn unit_count(&self) -> u32 {
        self.units.len() as u32
    }

    fn place(&mut self, unit_idx: usize, id: SuperblockId, size: u32) {
        self.units[unit_idx].blocks.push((id, size));
        self.units[unit_idx].used += u64::from(size);
        self.used += u64::from(size);
        self.resident.insert(id, unit_idx);
    }

    fn fits(&self, unit_idx: usize, size: u32) -> bool {
        self.units[unit_idx].used + u64::from(size) <= self.unit_capacity
    }

    /// Streams the eviction of unit `idx` into `scope`, clearing the unit
    /// in place so its `Vec` allocation is reused. The flush sequence is
    /// bumped even for an empty unit (matching the FIFO victim rotation).
    fn flush_unit_into(&mut self, idx: usize, scope: &mut EvictionScope<'_>) {
        self.flush_seq += 1;
        let seq = self.flush_seq;
        let unit = &mut self.units[idx];
        unit.last_flush_seq = seq;
        for &(id, size) in &unit.blocks {
            self.resident.remove(&id);
            scope.evict(id, size);
        }
        unit.blocks.clear();
        self.used -= unit.used;
        unit.used = 0;
    }

    /// The FIFO victim: the unit whose last flush is oldest.
    fn victim_unit(&self) -> usize {
        self.units
            .iter()
            .enumerate()
            .min_by_key(|(_, u)| u.last_flush_seq)
            .map(|(i, _)| i)
            .expect("at least one unit")
    }
}

impl CacheOrg for AffinityUnits {
    fn capacity(&self) -> u64 {
        self.unit_capacity * self.units.len() as u64
    }

    fn used(&self) -> u64 {
        self.used
    }

    fn contains(&self, id: SuperblockId) -> bool {
        self.resident.contains_key(&id)
    }

    fn unit_of(&self, id: SuperblockId) -> Option<UnitId> {
        self.resident.get(&id).map(|&u| UnitId(u as u64))
    }

    fn insert_events(
        &mut self,
        id: SuperblockId,
        size: u32,
        partner: Option<SuperblockId>,
        sink: &mut dyn EventSink,
    ) -> Result<(), CacheError> {
        if self.resident.contains_key(&id) {
            return Err(CacheError::AlreadyResident(id));
        }
        if size == 0 {
            return Err(CacheError::ZeroSize(id));
        }
        if u64::from(size) > self.unit_capacity {
            return Err(CacheError::BlockTooLarge {
                id,
                size,
                max: self.unit_capacity,
            });
        }
        // 1. Affinity placement: join the partner's unit if it has room.
        if let Some(p) = partner {
            self.hinted_placements += 1;
            if let Some(&unit_idx) = self.resident.get(&p) {
                if self.fits(unit_idx, size) {
                    self.hint_hits += 1;
                    self.place(unit_idx, id, size);
                    sink.event(CacheEvent::Inserted { id, size });
                    return Ok(());
                }
            }
        }
        // 2. Fall back to the fill unit.
        if self.fits(self.head, size) {
            let head = self.head;
            self.place(head, id, size);
            sink.event(CacheEvent::Inserted { id, size });
            return Ok(());
        }
        // 3. Any other unit with room (most free space first, index as
        //    the deterministic tiebreak).
        if let Some(best) = (0..self.units.len())
            .filter(|&i| self.fits(i, size))
            .max_by_key(|&i| (self.unit_capacity - self.units[i].used, usize::MAX - i))
        {
            self.head = best;
            self.place(best, id, size);
            sink.event(CacheEvent::Inserted { id, size });
            return Ok(());
        }
        // 4. Nothing fits: flush the FIFO victim unit and place there.
        let victim = self.victim_unit();
        let mut scope = EvictionScope::new(sink);
        self.flush_unit_into(victim, &mut scope);
        scope.finish();
        self.head = victim;
        self.place(victim, id, size);
        sink.event(CacheEvent::Inserted { id, size });
        Ok(())
    }

    fn resident_count(&self) -> usize {
        self.resident.len()
    }

    fn resident_entries(&self) -> Vec<(SuperblockId, u32)> {
        self.units
            .iter()
            .flat_map(|u| u.blocks.iter().copied())
            .collect()
    }

    fn granularity(&self) -> Granularity {
        if self.units.len() == 1 {
            Granularity::Flush
        } else {
            Granularity::units(self.units.len() as u32)
        }
    }

    fn flush_events(&mut self, sink: &mut dyn EventSink) -> bool {
        let mut scope = EvictionScope::new(sink);
        for i in 0..self.units.len() {
            self.flush_unit_into(i, &mut scope);
        }
        self.head = 0;
        scope.finish()
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
    fn conformance_affinity() {
        conformance(Box::new(AffinityUnits::new(1024, 8).unwrap()));
    }

    #[test]
    fn hinted_insertions_join_their_partner() {
        let mut c = AffinityUnits::new(400, 4).unwrap(); // 100-byte units
        c.insert(sb(1), 40).unwrap(); // unit 0
                                      // Fill unit 0 a bit more so a hintless insert would still land
                                      // there, then place far away.
        c.insert(sb(2), 40).unwrap(); // unit 0 (80/100)
                                      // Hintless 60-byte block: unit 0 full → most-free unit.
        c.insert(sb(3), 60).unwrap();
        let u3 = c.unit_of(sb(3)).unwrap();
        assert_ne!(u3, c.unit_of(sb(1)).unwrap());
        // Hinted toward sb3: lands in sb3's unit.
        c.insert_with_hint(sb(4), 30, Some(sb(3))).unwrap();
        assert_eq!(c.unit_of(sb(4)), Some(u3));
        assert_eq!(c.hinted_placements(), 1);
        assert_eq!(c.hint_hits(), 1);
    }

    #[test]
    fn hint_falls_back_when_partner_unit_is_full() {
        let mut c = AffinityUnits::new(200, 2).unwrap(); // 100-byte units
        c.insert(sb(1), 90).unwrap();
        let u1 = c.unit_of(sb(1)).unwrap();
        c.insert_with_hint(sb(2), 50, Some(sb(1))).unwrap();
        assert_ne!(c.unit_of(sb(2)), Some(u1), "no room next to the partner");
        assert_eq!(c.hint_hits(), 0);
    }

    #[test]
    fn full_cache_flushes_least_recently_flushed_unit() {
        let mut c = AffinityUnits::new(200, 2).unwrap();
        c.insert(sb(1), 90).unwrap();
        c.insert(sb(2), 90).unwrap();
        // Both units ~full; next insertion flushes unit with oldest flush
        // seq (unit 0, never flushed, index tiebreak).
        let r = c.insert(sb(3), 50).unwrap();
        assert_eq!(r.evictions.len(), 1);
        assert!(!c.contains(sb(1)));
        assert!(c.contains(sb(2)));
        assert!(c.contains(sb(3)));
    }

    #[test]
    fn stale_partner_hint_is_harmless() {
        let mut c = AffinityUnits::new(200, 2).unwrap();
        // Partner never existed.
        c.insert_with_hint(sb(1), 40, Some(sb(99))).unwrap();
        assert!(c.contains(sb(1)));
        assert_eq!(c.hinted_placements(), 1);
        assert_eq!(c.hint_hits(), 0);
    }
}
