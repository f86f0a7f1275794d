//! The paper's measured cost models (Equations 2–4).
//!
//! All three are linear models in instructions:
//!
//! * **Eviction** (Eq. 2): `2.77 · bytes + 3055` per eviction-mechanism
//!   invocation — dominated by the fixed invocation cost, which is the
//!   entire case for coarser granules.
//! * **Miss / regeneration** (Eq. 3): `75.4 · bytes + 1922` per code-cache
//!   miss — dominated by the per-byte re-translation work (~50 000
//!   instructions for a typical SPEC superblock, §3.2).
//! * **Unlinking** (Eq. 4): `296.5 · links + 95.7` per evicted superblock
//!   with incoming inter-unit links.
//!
//! A run is charged once, at its end, by [`OverheadModel::charge`] over
//! its [`CacheStats`].

use cce_core::CacheStats;

/// A fitted line `y = slope · x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearModel {
    /// Cost per unit of the independent variable.
    pub slope: f64,
    /// Fixed cost per event.
    pub intercept: f64,
}

/// Eq. 2 as measured in the paper: instructions per eviction-mechanism
/// invocation vs bytes evicted. This is the **only** place in the
/// workspace the constants are spelled out; everything else imports the
/// model or formats it via [`LinearModel`]'s `Display`, and a drifting
/// copy would show in the `all` digests.
pub const EVICTION_EQ2: LinearModel = LinearModel {
    slope: 2.77,
    intercept: 3055.0,
};

/// Eq. 3: instructions per code-cache miss vs superblock bytes. See
/// [`EVICTION_EQ2`] for the single-definition-site rule.
pub const MISS_EQ3: LinearModel = LinearModel {
    slope: 75.4,
    intercept: 1922.0,
};

/// Eq. 4: instructions per unlink operation vs incoming links removed.
/// See [`EVICTION_EQ2`] for the single-definition-site rule.
pub const UNLINK_EQ4: LinearModel = LinearModel {
    slope: 296.5,
    intercept: 95.7,
};

impl LinearModel {
    /// Evaluates the model at `x`.
    #[must_use]
    pub fn eval(&self, x: f64) -> f64 {
        self.slope * x + self.intercept
    }

    /// The shared figure-caption label, e.g. `"Eq. 4: 296.50*x + 95.7"`
    /// — one formatter so captions cannot drift from the model they
    /// describe.
    #[must_use]
    pub fn eq_label(&self, eq: u8) -> String {
        format!("Eq. {eq}: {self}")
    }
}

impl std::fmt::Display for LinearModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.2}*x + {:.1}", self.slope, self.intercept)
    }
}

/// The three cost models used by the simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverheadModel {
    /// Eq. 2: instructions per eviction invocation vs bytes evicted.
    pub eviction: LinearModel,
    /// Eq. 3: instructions per miss vs superblock bytes.
    pub miss: LinearModel,
    /// Eq. 4: instructions per unlink operation vs links removed.
    pub unlink: LinearModel,
}

impl OverheadModel {
    /// The constants measured on DynamoRIO in the paper (Eqs. 2–4).
    #[must_use]
    pub fn cgo2004() -> OverheadModel {
        OverheadModel {
            eviction: EVICTION_EQ2,
            miss: MISS_EQ3,
            unlink: UNLINK_EQ4,
        }
    }

    /// Instructions to evict `bytes` in one invocation (Eq. 2).
    #[must_use]
    pub fn eviction_cost(&self, bytes: u64) -> f64 {
        self.eviction.eval(bytes as f64)
    }

    /// Instructions to service a miss for a `bytes`-sized superblock
    /// (Eq. 3).
    #[must_use]
    pub fn miss_cost(&self, bytes: u64) -> f64 {
        self.miss
            .eval(f64::from(u32::try_from(bytes).unwrap_or(u32::MAX)))
    }

    /// Instructions to unpatch `links` incoming links of one evicted
    /// superblock (Eq. 4).
    #[must_use]
    pub fn unlink_cost(&self, links: u32) -> f64 {
        self.unlink.eval(f64::from(links))
    }

    /// Σ Eq. 2 over `invocations` eviction invocations that together
    /// freed `bytes` — the model is linear, so the aggregate counts are
    /// sufficient and no per-eviction report is ever materialized.
    #[must_use]
    pub fn eviction_cost_total(&self, invocations: u64, bytes: u64) -> f64 {
        self.eviction.slope * bytes as f64 + self.eviction.intercept * invocations as f64
    }

    /// Σ Eq. 4 over `operations` unlink operations that together removed
    /// `links` incoming links.
    #[must_use]
    pub fn unlink_cost_total(&self, operations: u64, links: u64) -> f64 {
        self.unlink.slope * links as f64 + self.unlink.intercept * operations as f64
    }

    /// Eqs. 2–4 summed over a whole run from its counters alone, as
    /// `(miss, eviction, unlink)` instructions: each model is `a·x + b`,
    /// so its sum over events is `a·Σx + b·count`. Eq. 3 charges every
    /// miss, uncacheable blocks included.
    #[must_use]
    pub fn charge(&self, stats: &CacheStats) -> (f64, f64, f64) {
        (
            self.miss.slope * stats.miss_bytes as f64 + self.miss.intercept * stats.misses as f64,
            self.eviction_cost_total(stats.eviction_invocations, stats.bytes_evicted),
            self.unlink_cost_total(stats.unlink_operations, stats.links_unlinked),
        )
    }
}

impl Default for OverheadModel {
    fn default() -> OverheadModel {
        OverheadModel::cgo2004()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_worked_examples_hold() {
        let m = OverheadModel::cgo2004();
        // §4.3: "An eviction of 230 bytes … would require 3,690
        // instructions."
        assert!((m.eviction_cost(230) - 3692.1).abs() < 3.0);
        // §4.3: "a cache miss for a 230-byte superblock … 19,264
        // instructions."
        assert!((m.miss_cost(230) - 19264.0).abs() < 81.0);
        // Eq. 4 at 1 link.
        assert!((m.unlink_cost(1) - 392.2).abs() < 0.5);
    }

    #[test]
    fn eviction_fixed_cost_dominates_small_blocks() {
        // The paper's key observation: the constant term dominates, so
        // evicting bigger regions amortizes better.
        let m = OverheadModel::cgo2004();
        let one_big = m.eviction_cost(10 * 230);
        let ten_small = 10.0 * m.eviction_cost(230);
        assert!(one_big < ten_small / 3.0);
    }

    #[test]
    fn miss_cost_is_byte_dominated() {
        let m = OverheadModel::cgo2004();
        let c = m.miss_cost(500);
        assert!(c > 0.9 * (75.4 * 500.0));
    }

    #[test]
    fn linear_model_display() {
        assert_eq!(EVICTION_EQ2.to_string(), "2.77*x + 3055.0");
        assert_eq!(MISS_EQ3.to_string(), "75.40*x + 1922.0");
        assert_eq!(UNLINK_EQ4.to_string(), "296.50*x + 95.7");
    }

    #[test]
    fn eq_label_is_the_shared_caption_format() {
        assert_eq!(UNLINK_EQ4.eq_label(4), "Eq. 4: 296.50*x + 95.7");
    }

    #[test]
    fn default_is_paper_constants() {
        assert_eq!(OverheadModel::default(), OverheadModel::cgo2004());
    }

    #[test]
    fn batch_costs_match_per_event_sums() {
        let m = OverheadModel::cgo2004();
        let per_event = m.eviction_cost(100) + m.eviction_cost(350) + m.eviction_cost(0);
        assert!((m.eviction_cost_total(3, 450) - per_event).abs() < 1e-9);
        let per_op = m.unlink_cost(2) + m.unlink_cost(5);
        assert!((m.unlink_cost_total(2, 7) - per_op).abs() < 1e-9);
        let stats = CacheStats {
            misses: 2,
            miss_bytes: 330,
            eviction_invocations: 3,
            bytes_evicted: 450,
            unlink_operations: 2,
            links_unlinked: 7,
            ..CacheStats::default()
        };
        let (miss, eviction, unlink) = m.charge(&stats);
        assert!((miss - (m.miss_cost(100) + m.miss_cost(230))).abs() < 1e-9);
        assert!((eviction - per_event).abs() < 1e-9);
        assert!((unlink - per_op).abs() < 1e-9);
    }
}
