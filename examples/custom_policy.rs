//! Plugging a custom eviction policy into the code cache.
//!
//! `CacheOrg` is the extension point: anything that can place superblocks
//! and stream its eviction decisions into an `EventSink` can be boxed
//! into a `CodeCache`, and the link bookkeeping, statistics, the event
//! pipeline and the whole simulator stack come for free.
//!
//! The custom policy here is **half-flush FIFO**: when the cache is full,
//! evict the *older half* of the resident superblocks in one invocation.
//! It is a granularity the paper does not test — adaptive in bytes (half
//! of whatever is resident) rather than fixed units — and lands, as one
//! would now predict, between 2-unit FIFO and fine FIFO.
//!
//! The example also runs `cce::core::testutil::conformance` against the
//! policy — the same contract suite the seven built-in organizations
//! pass, including the event-grammar invariants.
//!
//! Run with: `cargo run --release --example custom_policy`

use cce::core::{
    testutil, CacheError, CacheEvent, CacheOrg, CodeCache, EventSink, EvictionScope, Granularity,
    NullSink, SuperblockId, UnitId,
};
use cce::sim::metrics::unified_miss_rate;
use cce::workloads::catalog;
use std::collections::{HashMap, VecDeque};
use std::error::Error;

/// Evicts the older half of the cache in a single invocation when full.
#[derive(Debug)]
struct HalfFlush {
    capacity: u64,
    used: u64,
    queue: VecDeque<(SuperblockId, u32)>,
    resident: HashMap<SuperblockId, u32>,
}

impl HalfFlush {
    fn new(capacity: u64) -> Result<HalfFlush, CacheError> {
        if capacity == 0 {
            return Err(CacheError::ZeroCapacity);
        }
        Ok(HalfFlush {
            capacity,
            used: 0,
            queue: VecDeque::new(),
            resident: HashMap::new(),
        })
    }
}

impl CacheOrg for HalfFlush {
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
        // Two generations: the older half and the newer half.
        let pos = self.queue.iter().position(|&(q, _)| q == id)?;
        Some(UnitId(u64::from(pos >= self.queue.len() / 2)))
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
        if self.used + u64::from(size) > self.capacity {
            // Evict the older half (at least enough for the newcomer) as
            // one invocation — a single Eq. 2 charge.
            let mut scope = EvictionScope::new(sink);
            let target = (self.used / 2).max(u64::from(size));
            let mut freed = 0u64;
            while freed < target {
                let Some((old, old_size)) = self.queue.pop_front() else {
                    break;
                };
                self.resident.remove(&old);
                self.used -= u64::from(old_size);
                freed += u64::from(old_size);
                scope.evict(old, old_size);
            }
            scope.finish();
        }
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
        // Closest fixed label: two generations.
        Granularity::units(2)
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

fn main() -> Result<(), Box<dyn Error>> {
    // The same contract suite the built-in organizations pass — event
    // grammar included. Panics on any violation.
    testutil::conformance(Box::new(HalfFlush::new(1024)?));
    println!("conformance: ok (event grammar, residency, rejection, flush)\n");

    let model = catalog::by_name("vortex").expect("table 1 benchmark");
    let trace = model.trace(0.4, 3);
    let capacity = trace.max_cache_bytes() / 4; // pressure 4
    let sizes: HashMap<SuperblockId, u32> =
        trace.superblocks.iter().map(|s| (s.id, s.size)).collect();

    // Replay the trace against the custom policy by hand (the simulator
    // does the same thing for the built-ins), on the allocation-free
    // event path.
    let run_custom = || -> Result<(u64, u64, u64), Box<dyn Error>> {
        let mut cache = CodeCache::new(Box::new(HalfFlush::new(capacity)?));
        for ev in &trace.events {
            let cce::dbt::TraceEvent::Access { id, direct_from } = *ev;
            cache.transition(id, sizes[&id], direct_from, true, &mut NullSink)?;
        }
        let s = cache.stats();
        Ok((s.misses, s.accesses, s.eviction_invocations))
    };
    let (misses, accesses, invocations) = run_custom()?;

    println!("vortex @ pressure 4, capacity {} KB", capacity / 1024);
    println!(
        "custom half-flush : miss {:.2}%  ({invocations} eviction invocations)",
        unified_miss_rate([(misses, accesses)]) * 100.0
    );

    // Compare against the built-in spectrum via the simulator.
    for g in [
        Granularity::Flush,
        Granularity::units(2),
        Granularity::units(8),
        Granularity::Superblock,
    ] {
        let r = cce::sim::Replay::new(&trace)
            .granularity(g)
            .capacity(capacity)
            .run()?
            .into_solo();
        println!(
            "{:>18}: miss {:.2}%  ({} eviction invocations)",
            g.label(),
            r.stats.miss_rate() * 100.0,
            r.stats.eviction_invocations
        );
    }
    Ok(())
}
