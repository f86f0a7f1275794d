//! Cache-management statistics.
//!
//! Every counter the paper's evaluation needs is collected here: miss
//! rates (Figures 6–7), eviction-invocation counts (Figure 8), link
//! creation and classification (Figures 12–13), and the raw inputs to the
//! overhead models (Figures 10–11, 14–15 are computed by `cce-sim` from
//! these counters alone: Eqs. 2–4 are linear).

/// Counters accumulated by a [`crate::CodeCache`] over its lifetime.
///
/// This is a passive data structure (all fields public) so analysis code
/// can consume it freely; it is only ever *written* by `cce-core`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Superblock lookups.
    pub accesses: u64,
    /// Lookups that found the block resident.
    pub hits: u64,
    /// Lookups that missed (cold or capacity).
    pub misses: u64,
    /// Misses for blocks never previously resident (compulsory).
    pub cold_misses: u64,
    /// Misses for blocks that had been evicted (the replacement policy's
    /// fault).
    pub capacity_misses: u64,
    /// Bytes of every missed block, uncacheable ones included (Eq. 3's
    /// per-byte input; `bytes_inserted` leaves the uncacheable out).
    pub miss_bytes: u64,

    /// Successful insertions.
    pub insertions: u64,
    /// Total bytes inserted.
    pub bytes_inserted: u64,
    /// Bytes lost to unit padding (unit-partitioned policies only).
    pub padding_bytes: u64,

    /// Invocations of the eviction mechanism (the unit of Eq. 2's fixed
    /// cost and the quantity plotted in Figure 8).
    pub eviction_invocations: u64,
    /// Superblocks evicted across all invocations.
    pub blocks_evicted: u64,
    /// Bytes evicted across all invocations.
    pub bytes_evicted: u64,

    /// Links recorded (successful chain patches).
    pub links_created: u64,
    /// Links whose endpoints resided in *different* eviction units at
    /// creation time (Figure 13's numerator).
    pub inter_unit_links_created: u64,
    /// Evicted superblocks that had at least one incoming link from a
    /// surviving block — each such block is one unlink operation charged
    /// by Eq. 4.
    pub unlink_operations: u64,
    /// Incoming links from survivors removed across all unlink operations
    /// (Eq. 4's `numLinks` summed).
    pub links_unlinked: u64,
    /// Links dropped without unpatching work: both endpoints evicted in
    /// the same invocation (intra-unit links, incl. self links), or the
    /// link's *source* was evicted so the patched jump dies with it.
    pub links_dropped_free: u64,

    /// Peak bytes resident.
    pub high_water_bytes: u64,
    /// Peak superblock count resident.
    pub high_water_blocks: u64,
}

impl CacheStats {
    /// Creates zeroed statistics.
    #[must_use]
    pub fn new() -> CacheStats {
        CacheStats::default()
    }

    /// Miss rate over all accesses (0 when no accesses yet).
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Hit rate over all accesses (0 when no accesses yet).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }

    /// Fraction of created links that crossed unit boundaries (Figure 13).
    #[must_use]
    pub fn inter_unit_link_fraction(&self) -> f64 {
        if self.links_created == 0 {
            0.0
        } else {
            self.inter_unit_links_created as f64 / self.links_created as f64
        }
    }

    /// Mean superblocks evicted per eviction-mechanism invocation.
    #[must_use]
    pub fn blocks_per_eviction(&self) -> f64 {
        if self.eviction_invocations == 0 {
            0.0
        } else {
            self.blocks_evicted as f64 / self.eviction_invocations as f64
        }
    }

    /// Mean bytes evicted per eviction-mechanism invocation.
    #[must_use]
    pub fn bytes_per_eviction(&self) -> f64 {
        if self.eviction_invocations == 0 {
            0.0
        } else {
            self.bytes_evicted as f64 / self.eviction_invocations as f64
        }
    }

    /// Merges another stats block into this one (used to aggregate across
    /// benchmarks for the paper's weighted unified miss rate, Eq. 1).
    pub fn merge(&mut self, other: &CacheStats) {
        self.accesses += other.accesses;
        self.hits += other.hits;
        self.misses += other.misses;
        self.cold_misses += other.cold_misses;
        self.capacity_misses += other.capacity_misses;
        self.miss_bytes += other.miss_bytes;
        self.insertions += other.insertions;
        self.bytes_inserted += other.bytes_inserted;
        self.padding_bytes += other.padding_bytes;
        self.eviction_invocations += other.eviction_invocations;
        self.blocks_evicted += other.blocks_evicted;
        self.bytes_evicted += other.bytes_evicted;
        self.links_created += other.links_created;
        self.inter_unit_links_created += other.inter_unit_links_created;
        self.unlink_operations += other.unlink_operations;
        self.links_unlinked += other.links_unlinked;
        self.links_dropped_free += other.links_dropped_free;
        self.high_water_bytes = self.high_water_bytes.max(other.high_water_bytes);
        self.high_water_blocks = self.high_water_blocks.max(other.high_water_blocks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_handle_zero_accesses() {
        let s = CacheStats::new();
        assert_eq!(s.miss_rate(), 0.0);
        assert_eq!(s.hit_rate(), 0.0);
        assert_eq!(s.inter_unit_link_fraction(), 0.0);
        assert_eq!(s.blocks_per_eviction(), 0.0);
        assert_eq!(s.bytes_per_eviction(), 0.0);
    }

    #[test]
    fn rates_compute() {
        let s = CacheStats {
            accesses: 10,
            hits: 7,
            misses: 3,
            links_created: 4,
            inter_unit_links_created: 1,
            eviction_invocations: 2,
            blocks_evicted: 10,
            bytes_evicted: 600,
            ..CacheStats::default()
        };
        assert!((s.miss_rate() - 0.3).abs() < 1e-12);
        assert!((s.hit_rate() - 0.7).abs() < 1e-12);
        assert!((s.inter_unit_link_fraction() - 0.25).abs() < 1e-12);
        assert!((s.blocks_per_eviction() - 5.0).abs() < 1e-12);
        assert!((s.bytes_per_eviction() - 300.0).abs() < 1e-12);
    }

    #[test]
    fn merge_sums_counters_and_maxes_high_water() {
        let mut a = CacheStats {
            accesses: 5,
            misses: 2,
            miss_bytes: 300,
            high_water_bytes: 100,
            ..CacheStats::default()
        };
        let b = CacheStats {
            accesses: 7,
            misses: 1,
            miss_bytes: 45,
            high_water_bytes: 80,
            high_water_blocks: 9,
            ..CacheStats::default()
        };
        a.merge(&b);
        assert_eq!(a.accesses, 12);
        assert_eq!(a.misses, 3);
        assert_eq!(a.miss_bytes, 345);
        assert_eq!(a.high_water_bytes, 100);
        assert_eq!(a.high_water_blocks, 9);
    }
}
