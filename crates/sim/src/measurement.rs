//! Synthetic measurement campaigns for Figure 9's regression sanity
//! check.
//!
//! The paper inserted PAPI hardware counters around DynamoRIO's eviction,
//! regeneration and unlink routines, collected >10 000 samples, and fit
//! least-squares trendlines (Figure 9 → Eqs. 2–4). We have no PAPI, no
//! DynamoRIO and no translator of our own to measure. A campaign instead
//! draws synthetic samples around a given linear model (by default the
//! paper's own Eqs. 2–4) with Gaussian noise, across realistic input
//! sizes. Fitting them with [`crate::regression`] recovers the model it
//! was drawn from by construction, so Figure 9 checks the regression
//! code, not any cost of ours.

use crate::overhead::{LinearModel, OverheadModel};
use cce_util::{Rng, StdRng};

/// A routine under instruction-count instrumentation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstrumentedRoutine {
    /// The routine's true cost model.
    pub true_model: LinearModel,
    /// Standard deviation of measurement noise, as a fraction of the true
    /// cost (PAPI-style counter jitter).
    pub relative_noise: f64,
}

impl InstrumentedRoutine {
    /// Takes one measurement at input `x`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R, x: f64) -> f64 {
        let truth = self.true_model.eval(x);
        let noise = standard_normal(rng) * self.relative_noise * truth;
        (truth + noise).max(0.0)
    }
}

/// A full measurement campaign over the three cache-management routines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Campaign {
    /// Eviction routine (input: bytes evicted).
    pub eviction: InstrumentedRoutine,
    /// Miss/regeneration routine (input: superblock bytes).
    pub miss: InstrumentedRoutine,
    /// Unlink routine (input: incoming links removed).
    pub unlink: InstrumentedRoutine,
}

impl Campaign {
    /// A campaign whose true costs are the paper's measured models, with
    /// 8% relative noise: the regression on its samples must give back
    /// Eqs. 2–4.
    #[must_use]
    pub fn dynamorio_like() -> Campaign {
        let m = OverheadModel::cgo2004();
        Campaign {
            eviction: InstrumentedRoutine {
                true_model: m.eviction,
                relative_noise: 0.08,
            },
            miss: InstrumentedRoutine {
                true_model: m.miss,
                relative_noise: 0.08,
            },
            unlink: InstrumentedRoutine {
                true_model: m.unlink,
                relative_noise: 0.08,
            },
        }
    }

    /// Collects `n` eviction measurements across a realistic spread of
    /// eviction sizes (single superblocks up to multi-kilobyte unit
    /// flushes). Returns `(bytes, instructions)` samples.
    #[must_use]
    pub fn eviction_samples(&self, n: usize, seed: u64) -> Vec<(f64, f64)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                // Log-normal around the 230-byte median superblock,
                // times 1–32 blocks per invocation.
                let size = log_normal(&mut rng, 230.0, 0.6);
                let blocks = 1 << rng.gen_range(0..6u32);
                let bytes = (size * f64::from(blocks)).clamp(32.0, 64.0 * 1024.0);
                (bytes, self.eviction.sample(&mut rng, bytes))
            })
            .collect()
    }

    /// Collects `n` miss-service measurements across superblock sizes.
    #[must_use]
    pub fn miss_samples(&self, n: usize, seed: u64) -> Vec<(f64, f64)> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5555_5555);
        (0..n)
            .map(|_| {
                let bytes = log_normal(&mut rng, 230.0, 0.6).clamp(32.0, 8192.0);
                (bytes, self.miss.sample(&mut rng, bytes))
            })
            .collect()
    }

    /// Collects `n` unlink measurements across link counts (1..=8).
    #[must_use]
    pub fn unlink_samples(&self, n: usize, seed: u64) -> Vec<(f64, f64)> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xAAAA_AAAA);
        (0..n)
            .map(|_| {
                let links = f64::from(rng.gen_range(1..=8u32));
                (links, self.unlink.sample(&mut rng, links))
            })
            .collect()
    }
}

fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

fn log_normal<R: Rng + ?Sized>(rng: &mut R, median: f64, sigma: f64) -> f64 {
    (median.ln() + sigma * standard_normal(rng)).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overhead::{EVICTION_EQ2, MISS_EQ3, UNLINK_EQ4};
    use crate::regression::fit_line;

    #[test]
    fn regression_recovers_eviction_model() {
        // The Figure 9 pipeline: >10k samples, least squares, compare to
        // Eq. 2.
        let samples = Campaign::dynamorio_like().eviction_samples(10_000, 42);
        assert!(samples.len() >= 10_000);
        let fit = fit_line(&samples).unwrap();
        assert!(
            (fit.model.slope - EVICTION_EQ2.slope).abs() < 0.25,
            "slope {}",
            fit.model.slope
        );
        assert!(
            (fit.model.intercept - EVICTION_EQ2.intercept).abs() < 300.0,
            "intercept {}",
            fit.model.intercept
        );
        assert!(fit.r_squared > 0.5, "r2 {}", fit.r_squared);
    }

    #[test]
    fn regression_recovers_miss_model() {
        let samples = Campaign::dynamorio_like().miss_samples(10_000, 7);
        let fit = fit_line(&samples).unwrap();
        assert!(
            (fit.model.slope - MISS_EQ3.slope).abs() < 4.0,
            "slope {}",
            fit.model.slope
        );
        assert!(
            (fit.model.intercept - MISS_EQ3.intercept).abs() < 900.0,
            "intercept {}",
            fit.model.intercept
        );
    }

    #[test]
    fn regression_recovers_unlink_model() {
        let samples = Campaign::dynamorio_like().unlink_samples(10_000, 9);
        let fit = fit_line(&samples).unwrap();
        assert!(
            (fit.model.slope - UNLINK_EQ4.slope).abs() < 20.0,
            "slope {}",
            fit.model.slope
        );
    }

    #[test]
    fn samples_are_deterministic_per_seed() {
        let c = Campaign::dynamorio_like();
        assert_eq!(c.eviction_samples(100, 3), c.eviction_samples(100, 3));
        assert_ne!(c.eviction_samples(100, 3), c.eviction_samples(100, 4));
    }

    #[test]
    fn measurements_are_nonnegative() {
        let c = Campaign::dynamorio_like();
        for &(x, y) in &c.unlink_samples(2000, 5) {
            assert!(x >= 1.0);
            assert!(y >= 0.0);
        }
    }
}
