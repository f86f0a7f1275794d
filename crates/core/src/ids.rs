//! Identifiers and the eviction-granularity spectrum.

use std::fmt;
use std::num::NonZeroU32;

/// Identity of a superblock as assigned by the dynamic optimizer.
///
/// In a real DBT this is the original-code PC of the superblock head; the
/// cache only needs it to be unique and stable across re-insertions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SuperblockId(pub u64);

impl fmt::Display for SuperblockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sb{}", self.0)
    }
}

/// Identity of a cache unit (an eviction granule).
///
/// For unit-partitioned organizations this is the unit index; for the
/// fine-grained FIFO every superblock is its own unit, so the unit id is
/// derived from the superblock id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UnitId(pub u64);

impl fmt::Display for UnitId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u{}", self.0)
    }
}

/// A point on the eviction-granularity spectrum (paper §4, Figure 5).
///
/// Ordered from coarsest to finest:
///
/// * [`Granularity::Flush`] — the whole cache is one unit; filling it
///   triggers a full flush (Dynamo, DELI, and the paper's `FLUSH` baseline).
/// * [`Granularity::Units`] — the cache is split into N equal units, each
///   flushed whole in FIFO (round-robin) order; N = 2 is Mojo's policy,
///   larger N is the *medium-grained* middle ground the paper advocates.
/// * [`Granularity::Superblock`] — every superblock is its own unit; a
///   circular buffer evicts just enough of the oldest blocks to make room
///   (DynamoRIO's bounded-cache policy, the paper's finest-grained FIFO).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Granularity {
    /// Coarsest: flush the entire cache when full.
    Flush,
    /// Medium: N equal cache units flushed round-robin. `Units(1)` is
    /// semantically identical to `Flush`.
    Units(NonZeroU32),
    /// Finest: evict individual superblocks in FIFO order.
    Superblock,
}

impl Granularity {
    /// Convenience constructor for [`Granularity::Units`].
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    #[expect(clippy::expect_used, reason = "documented panic on a zero unit count")]
    pub fn units(n: u32) -> Granularity {
        Granularity::Units(NonZeroU32::new(n).expect("unit count must be nonzero"))
    }

    /// Number of units the cache is partitioned into, if bounded.
    /// `None` means per-superblock granularity (unbounded unit count).
    #[must_use]
    pub fn unit_count(self) -> Option<u32> {
        match self {
            Granularity::Flush => Some(1),
            Granularity::Units(n) => Some(n.get()),
            Granularity::Superblock => None,
        }
    }

    /// True if this is the coarsest (full-flush) granularity.
    #[must_use]
    pub fn is_flush(self) -> bool {
        self.unit_count() == Some(1)
    }

    /// The sweep of granularities used throughout the paper's evaluation:
    /// FLUSH, 2, 4, 8, …, `2^max_pow2` units, then fine-grained FIFO.
    ///
    /// # Example
    ///
    /// ```
    /// use cce_core::Granularity;
    /// let sweep = Granularity::spectrum(8);
    /// assert_eq!(sweep.len(), 10); // FLUSH, 2..=256 by powers of two, FIFO
    /// assert_eq!(sweep[0], Granularity::Flush);
    /// assert_eq!(sweep[9], Granularity::Superblock);
    /// ```
    #[must_use]
    pub fn spectrum(max_pow2: u32) -> Vec<Granularity> {
        let mut v = vec![Granularity::Flush];
        for p in 1..=max_pow2 {
            v.push(Granularity::units(1 << p));
        }
        v.push(Granularity::Superblock);
        v
    }

    /// A short label matching the paper's figures (`FLUSH`, `8-Unit`,
    /// `FIFO`).
    #[must_use]
    pub fn label(self) -> String {
        match self {
            Granularity::Flush => "FLUSH".to_owned(),
            Granularity::Units(n) if n.get() == 1 => "FLUSH".to_owned(),
            Granularity::Units(n) => format!("{}-Unit", n.get()),
            Granularity::Superblock => "FIFO".to_owned(),
        }
    }
}

impl fmt::Display for Granularity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// Orders coarsest → finest (FLUSH < 2-Unit < … < FIFO).
impl PartialOrd for Granularity {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Granularity {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Map to a comparable fineness key: unit count, with Superblock as
        // infinity.
        let key = |g: &Granularity| g.unit_count().map_or(u64::MAX, u64::from);
        key(self).cmp(&key(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spectrum_is_sorted_coarse_to_fine() {
        let s = Granularity::spectrum(8);
        for w in s.windows(2) {
            assert!(w[0] < w[1], "{} !< {}", w[0], w[1]);
        }
    }

    #[test]
    fn labels_match_paper_terms() {
        assert_eq!(Granularity::Flush.label(), "FLUSH");
        assert_eq!(Granularity::units(1).label(), "FLUSH");
        assert_eq!(Granularity::units(8).label(), "8-Unit");
        assert_eq!(Granularity::Superblock.label(), "FIFO");
    }

    #[test]
    fn unit_counts() {
        assert_eq!(Granularity::Flush.unit_count(), Some(1));
        assert_eq!(Granularity::units(64).unit_count(), Some(64));
        assert_eq!(Granularity::Superblock.unit_count(), None);
        assert!(Granularity::Flush.is_flush());
        assert!(Granularity::units(1).is_flush());
        assert!(!Granularity::units(2).is_flush());
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_units_panics() {
        let _ = Granularity::units(0);
    }

    #[test]
    fn display_ids() {
        assert_eq!(SuperblockId(7).to_string(), "sb7");
        assert_eq!(UnitId(3).to_string(), "u3");
    }
}
