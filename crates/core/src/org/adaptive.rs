//! Pressure-adaptive eviction granularity (the paper's §5.4 future work).
//!
//! The paper's headline finding is that the best unit count depends on
//! cache pressure: fine granularity wins when pressure is low, coarser
//! medium grains win as pressure rises. Its future-work section proposes a
//! manager that "dynamically adjusts the eviction granularity on-the-fly,
//! based on the perceived cache pressure". [`AdaptiveUnits`] implements
//! that idea.
//!
//! Every `epoch` insertions the policy inspects the epoch's miss count and
//! eviction-invocation count, weighted by approximate per-event costs (a
//! miss costs far more than an eviction invocation, per Eqs. 2–3):
//!
//! * miss-dominated epoch ⇒ *finer* (double the unit count) — misses are
//!   what finer grains reduce;
//! * invocation-dominated epoch ⇒ *coarser* (halve the unit count).
//!
//! Re-partitioning happens by flushing the cache (one invocation), which
//! is exactly how a real system would avoid re-linking live code across a
//! moved unit boundary; adaptation is rate-limited so this cost is
//! amortized.

use crate::error::CacheError;
use crate::events::{CountingSink, EventSink};
use crate::ids::{Granularity, SuperblockId, UnitId};
use crate::org::unit_fifo::UnitFifo;
use crate::org::CacheOrg;

/// Unit-FIFO organization that retunes its unit count from observed
/// pressure. See the module docs.
#[derive(Debug)]
pub struct AdaptiveUnits {
    inner: UnitFifo,
    capacity: u64,
    min_units: u32,
    max_units: u32,
    epoch: u64,
    insertions_this_epoch: u64,
    misses_this_epoch: u64,
    invocations_this_epoch: u64,
    adaptations: u64,
    /// Largest superblock inserted so far; bounds how fine the unit count
    /// may go (a unit must hold the largest block).
    max_block_seen: u32,
    /// Relative cost of one miss vs one eviction invocation, used to
    /// compare the two pressure signals (≈ Eq.3 / Eq.2 at the paper's
    /// median superblock size).
    miss_weight: f64,
}

impl AdaptiveUnits {
    /// Default adaptation epoch, in insertions.
    pub const DEFAULT_EPOCH: u64 = 256;
    /// Default miss/invocation cost ratio (≈19 264 / 3 690 at 230 bytes).
    pub const DEFAULT_MISS_WEIGHT: f64 = 5.2;

    /// Creates an adaptive cache starting at `start_units`, constrained to
    /// `[min_units, max_units]`.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`UnitFifo`] constructor errors.
    ///
    /// # Panics
    ///
    /// Panics if the unit bounds are not `1 <= min <= start <= max`.
    pub fn new(
        capacity: u64,
        start_units: u32,
        min_units: u32,
        max_units: u32,
    ) -> Result<AdaptiveUnits, CacheError> {
        assert!(
            1 <= min_units && min_units <= start_units && start_units <= max_units,
            "need 1 <= min <= start <= max"
        );
        Ok(AdaptiveUnits {
            inner: UnitFifo::new(capacity, start_units)?,
            capacity,
            min_units,
            max_units,
            epoch: Self::DEFAULT_EPOCH,
            insertions_this_epoch: 0,
            misses_this_epoch: 0,
            invocations_this_epoch: 0,
            adaptations: 0,
            max_block_seen: 1,
            miss_weight: Self::DEFAULT_MISS_WEIGHT,
        })
    }

    /// Sets the adaptation epoch (insertions between retuning decisions).
    ///
    /// # Panics
    ///
    /// Panics if `epoch == 0`.
    pub fn set_epoch(&mut self, epoch: u64) {
        assert!(epoch > 0, "epoch must be nonzero");
        self.epoch = epoch;
    }

    /// The current unit count.
    #[must_use]
    pub fn unit_count(&self) -> u32 {
        self.inner.unit_count()
    }

    /// How many times the unit count has been changed.
    #[must_use]
    pub fn adaptations(&self) -> u64 {
        self.adaptations
    }

    /// Decides a new unit count at an epoch boundary, retuning the inner
    /// cache if the decision changes it. The retune flush (if the cache
    /// was nonempty) streams into `sink`.
    fn maybe_adapt(&mut self, sink: &mut dyn EventSink) {
        if self.insertions_this_epoch < self.epoch {
            return;
        }
        let misses = self.misses_this_epoch as f64 * self.miss_weight;
        let invocations = self.invocations_this_epoch as f64;
        self.insertions_this_epoch = 0;
        self.misses_this_epoch = 0;
        self.invocations_this_epoch = 0;

        let current = self.inner.unit_count();
        // A unit must still hold the largest superblock seen, or finer
        // partitioning just makes code uncacheable.
        let fit = u32::try_from(self.capacity / u64::from(self.max_block_seen.max(1)))
            .unwrap_or(u32::MAX)
            .max(1);
        // Hysteresis: require a 2× imbalance before moving.
        let target = if misses > invocations * 2.0 {
            (current * 2)
                .min(self.max_units)
                .min(fit)
                .max(self.min_units.min(fit))
        } else if invocations > misses * 2.0 {
            (current / 2).max(self.min_units).min(fit).max(1)
        } else {
            current
        };
        if target == current {
            return;
        }
        self.inner.flush_events(sink);
        #[expect(
            clippy::expect_used,
            reason = "the unit-count bounds were validated at construction"
        )]
        let inner =
            UnitFifo::new(self.capacity, target).expect("bounds were validated at construction");
        self.inner = inner;
        self.adaptations += 1;
    }
}

impl CacheOrg for AdaptiveUnits {
    fn capacity(&self) -> u64 {
        self.inner.capacity()
    }

    fn used(&self) -> u64 {
        self.inner.used()
    }

    fn contains(&self, id: SuperblockId) -> bool {
        self.inner.contains(id)
    }

    fn unit_of(&self, id: SuperblockId) -> Option<UnitId> {
        self.inner.unit_of(id)
    }

    fn insert_events(
        &mut self,
        id: SuperblockId,
        size: u32,
        partner: Option<SuperblockId>,
        sink: &mut dyn EventSink,
    ) -> Result<(), CacheError> {
        if self.inner.contains(id) {
            return Err(CacheError::AlreadyResident(id));
        }
        if size == 0 {
            // Reject before adapting so a doomed insert emits no events.
            return Err(CacheError::ZeroSize(id));
        }
        let mut counting = CountingSink::new(sink);
        self.maybe_adapt(&mut counting);
        self.inner.insert_events(id, size, partner, &mut counting)?;
        self.max_block_seen = self.max_block_seen.max(size);
        self.insertions_this_epoch += 1;
        self.invocations_this_epoch += counting.invocations();
        Ok(())
    }

    fn resident_count(&self) -> usize {
        self.inner.resident_count()
    }

    fn resident_entries(&self) -> Vec<(SuperblockId, u32)> {
        self.inner.resident_entries()
    }

    fn granularity(&self) -> Granularity {
        self.inner.granularity()
    }

    fn flush_events(&mut self, sink: &mut dyn EventSink) -> bool {
        self.inner.flush_events(sink)
    }

    fn note_access(&mut self, hit: bool) {
        if !hit {
            self.misses_this_epoch += 1;
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
    fn conformance_adaptive() {
        conformance(Box::new(AdaptiveUnits::new(1024, 4, 1, 64).unwrap()));
    }

    #[test]
    fn bounds_are_validated() {
        assert!(AdaptiveUnits::new(1024, 4, 1, 64).is_ok());
    }

    #[test]
    #[should_panic(expected = "min <= start <= max")]
    fn bad_bounds_panic() {
        let _ = AdaptiveUnits::new(1024, 1, 2, 64);
    }

    #[test]
    fn miss_pressure_refines_granularity() {
        let mut c = AdaptiveUnits::new(4096, 2, 1, 64).unwrap();
        c.set_epoch(16);
        // Register heavy miss pressure, then insert across an epoch
        // boundary.
        for i in 0..17u64 {
            c.note_access(false);
            c.note_access(false);
            c.insert(sb(i), 64).unwrap();
        }
        assert!(c.unit_count() > 2, "unit count should have doubled");
        assert!(c.adaptations() >= 1);
    }

    #[test]
    fn invocation_pressure_coarsens_granularity() {
        let mut c = AdaptiveUnits::new(256, 16, 1, 64).unwrap();
        c.set_epoch(32);
        // Tiny 16-byte units, 16-byte blocks: every insertion past the
        // first lap flushes a unit ⇒ invocation-dominated, no misses
        // recorded.
        for i in 0..40u64 {
            c.insert(sb(i), 16).unwrap();
        }
        assert!(c.unit_count() < 16, "unit count should have halved");
    }

    #[test]
    fn stable_balance_does_not_thrash() {
        let mut c = AdaptiveUnits::new(4096, 8, 1, 64).unwrap();
        c.set_epoch(16);
        // No misses, no evictions (cache big enough): no adaptation.
        for i in 0..64u64 {
            c.note_access(true);
            c.insert(sb(i), 16).unwrap();
        }
        assert_eq!(c.unit_count(), 8);
        assert_eq!(c.adaptations(), 0);
    }
}
