//! Cache-pressure sweeps (`maxCache / n`, §4.2).
//!
//! The paper sizes every cache relative to the benchmark's own unbounded
//! footprint: `capacity = maxCache / pressure` with pressure ∈ 2..=10,
//! which guarantees the replacement policy is actually stressed. These
//! helpers run a trace across a (granularity × pressure) grid.

use crate::simulator::{simulate_source_session, EventSource, SimConfig, SimError, SimResult};
use cce_core::{CodeCache, Granularity, ShardedCache};
use cce_dbt::{SuperblockInfo, TraceLog};

/// Minimum capacity used by [`capacity_for_pressure`], so extreme
/// pressures on tiny workloads still admit at least a few superblocks.
pub const MIN_CAPACITY: u64 = 4096;

/// The paper's default pressure sweep (2..=10).
#[must_use]
pub fn default_pressures() -> Vec<u32> {
    (2..=10).collect()
}

/// Computes `maxCache / pressure`, floored at [`MIN_CAPACITY`].
///
/// # Panics
///
/// Panics if `pressure == 0`.
#[must_use]
pub fn capacity_for_pressure(max_cache_bytes: u64, pressure: u32) -> u64 {
    assert!(pressure > 0, "pressure must be nonzero");
    (max_cache_bytes / u64::from(pressure)).max(MIN_CAPACITY)
}

/// One cell of a pressure sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct PressurePoint {
    /// Cache-pressure factor `n`.
    pub pressure: u32,
    /// Granularity simulated.
    pub granularity: Granularity,
    /// The simulation outcome.
    pub result: SimResult,
}

/// Clamps a unit-partitioned granularity so each unit can hold the
/// trace's largest superblock — a real system never partitions below its
/// biggest trace, it just degenerates toward per-superblock eviction.
/// Fine-grained FIFO and FLUSH pass through unchanged.
#[must_use]
pub fn effective_granularity(
    granularity: Granularity,
    capacity: u64,
    max_block_bytes: u64,
) -> Granularity {
    match granularity.unit_count() {
        None | Some(1) => granularity,
        Some(n) => {
            let fit = (capacity / max_block_bytes.max(1)).max(1);
            let clamped = u64::from(n).min(fit);
            Granularity::units(u32::try_from(clamped).unwrap_or(u32::MAX))
        }
    }
}

/// Whole-trace sizing facts a sweep needs at every cell. Both are O(n)
/// scans of the trace, so a sweep runner computes them **once per trace
/// per plan** instead of once per cell (the `--shards` axis would
/// otherwise multiply the redundant scans).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSizing {
    /// The trace's unbounded footprint (`maxCache`, §4.2).
    pub max_cache_bytes: u64,
    /// The largest single superblock, for unit-count clamping.
    pub max_block_bytes: u64,
}

impl TraceSizing {
    /// Scans `trace` once for both sizing facts.
    #[must_use]
    pub fn of(trace: &TraceLog) -> TraceSizing {
        TraceSizing::of_source(trace)
    }

    /// [`TraceSizing::of`] for any [`EventSource`] — both facts come
    /// from the registry alone, so a streaming header is enough.
    #[must_use]
    pub fn of_source<T: EventSource + ?Sized>(source: &T) -> TraceSizing {
        TraceSizing::of_registry(source.registry())
    }

    /// [`TraceSizing::of`] from a bare superblock registry — what a
    /// streaming reader or a serve-mode header hands over before any
    /// events arrive.
    #[must_use]
    pub fn of_registry(registry: &[SuperblockInfo]) -> TraceSizing {
        TraceSizing {
            max_cache_bytes: registry.iter().map(|s| u64::from(s.size)).sum(),
            max_block_bytes: registry
                .iter()
                .map(|s| u64::from(s.size))
                .max()
                .unwrap_or(1),
        }
    }
}

/// Simulates `trace` at one `(granularity, pressure)` point with `base`
/// options (its granularity/capacity fields are overridden). The unit
/// count is clamped via [`effective_granularity`] so units always fit the
/// trace's largest superblock; the result keeps the *requested*
/// granularity's label so sweep tables stay aligned.
///
/// # Errors
///
/// Propagates [`SimError`] from the simulator.
pub fn simulate_at_pressure(
    trace: &TraceLog,
    granularity: Granularity,
    pressure: u32,
    base: &SimConfig,
) -> Result<SimResult, SimError> {
    simulate_cell_source(
        trace,
        TraceSizing::of(trace),
        granularity,
        pressure,
        1,
        base,
    )
}

/// [`simulate_at_pressure`] over any [`EventSource`], with the
/// whole-trace scans hoisted out (pass a cached [`TraceSizing`]) and a
/// shard-count axis: `shards > 1` splits the cell's capacity over a
/// consistent-hashed [`cce_core::ShardedCache`] at **fixed total
/// capacity**, and the unit clamp applies per shard (each shard is its
/// own eviction domain). A sweep feeds every cell the same decoded
/// [`cce_dbt::SharedTrace`] chunks without re-parsing.
///
/// # Errors
///
/// Propagates [`SimError`] from the simulator.
pub fn simulate_cell_source<T: EventSource + ?Sized>(
    source: &T,
    sizing: TraceSizing,
    granularity: Granularity,
    pressure: u32,
    shards: u32,
    base: &SimConfig,
) -> Result<SimResult, SimError> {
    let config = cell_config(sizing, granularity, pressure, shards, base);
    let label = config.granularity.label();
    let mut result = if shards <= 1 {
        let cache = CodeCache::with_granularity(config.granularity, config.capacity)?;
        simulate_source_session(source, cache, label, &config)?
    } else {
        let cache = ShardedCache::with_granularity(config.granularity, config.capacity, shards)?;
        simulate_source_session(source, cache, label, &config)?
    };
    result.granularity_label = granularity.label();
    Ok(result)
}

/// Resolves one sweep cell's geometry into a concrete [`SimConfig`]:
/// `capacity = maxCache / pressure` (floored at [`MIN_CAPACITY`]) and
/// the granularity's unit count clamped via [`effective_granularity`]
/// against the **per-shard** capacity — each shard is its own eviction
/// domain, so units must fit the largest superblock inside one shard.
///
/// # Panics
///
/// Panics if `pressure == 0` (callers such as [`crate::replay::Replay`]
/// validate first and surface [`SimError::Config`] instead).
#[must_use]
pub fn cell_config(
    sizing: TraceSizing,
    granularity: Granularity,
    pressure: u32,
    shards: u32,
    base: &SimConfig,
) -> SimConfig {
    let capacity = capacity_for_pressure(sizing.max_cache_bytes, pressure);
    let shard_capacity = capacity / u64::from(shards.max(1));
    SimConfig {
        granularity: effective_granularity(granularity, shard_capacity, sizing.max_block_bytes),
        capacity,
        ..*base
    }
}

/// Sweeps `trace` over the full `(granularity × pressure)` grid.
///
/// # Errors
///
/// Propagates the first [`SimError`] encountered.
pub fn sweep_trace(
    trace: &TraceLog,
    granularities: &[Granularity],
    pressures: &[u32],
    base: &SimConfig,
) -> Result<Vec<PressurePoint>, SimError> {
    let mut out = Vec::with_capacity(granularities.len() * pressures.len());
    for &pressure in pressures {
        for &granularity in granularities {
            let result = simulate_at_pressure(trace, granularity, pressure, base)?;
            out.push(PressurePoint {
                pressure,
                granularity,
                result,
            });
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cce_workloads::catalog;

    #[test]
    fn capacity_math() {
        assert_eq!(capacity_for_pressure(1_000_000, 2), 500_000);
        assert_eq!(capacity_for_pressure(1_000_000, 10), 100_000);
        assert_eq!(capacity_for_pressure(100, 10), MIN_CAPACITY);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_pressure_panics() {
        let _ = capacity_for_pressure(100, 0);
    }

    #[test]
    fn sweep_covers_grid() {
        let trace = catalog::by_name("mcf").unwrap().trace(0.3, 1);
        let gs = [Granularity::Flush, Granularity::Superblock];
        let ps = [2, 10];
        let points = sweep_trace(&trace, &gs, &ps, &SimConfig::default()).unwrap();
        assert_eq!(points.len(), 4);
        // Higher pressure ⇒ smaller capacity ⇒ miss rate can only rise
        // (for the same granularity).
        for g in gs {
            let low = points
                .iter()
                .find(|p| p.pressure == 2 && p.granularity == g)
                .unwrap();
            let high = points
                .iter()
                .find(|p| p.pressure == 10 && p.granularity == g)
                .unwrap();
            assert!(
                high.result.stats.miss_rate() >= low.result.stats.miss_rate(),
                "{g}: pressure 10 should not miss less than pressure 2"
            );
        }
    }

    #[test]
    fn miss_rates_decline_with_finer_granularity_under_pressure() {
        // The paper's Figure 6 shape on a single benchmark.
        let trace = catalog::by_name("gzip").unwrap().trace(0.4, 3);
        let base = SimConfig::default();
        let flush = simulate_at_pressure(&trace, Granularity::Flush, 2, &base).unwrap();
        let fine = simulate_at_pressure(&trace, Granularity::Superblock, 2, &base).unwrap();
        assert!(
            fine.stats.miss_rate() <= flush.stats.miss_rate(),
            "fine {} vs flush {}",
            fine.stats.miss_rate(),
            flush.stats.miss_rate()
        );
    }
}
