//! Core-vs-trait equivalence on the settled event stream.
//!
//! For every organization, the same seeded random insert/access/link
//! sequence is driven through two identically configured caches — one
//! via the bare [`CodeCache::insert_request`] core, one through the
//! [`CacheSession`] trait the serving layers use — and the event
//! streams, their [`InsertReport`] reassembly, the compact summaries and
//! the final [`CacheStats`] must match exactly — except `miss_bytes`,
//! which only the trait's miss path counts and which must equal the
//! bytes of the misses the bare core filled. This is the
//! guarantee that let the legacy `#[deprecated]` insert shims be
//! deleted: every surviving entry point is the same core.

use cce_core::{
    AdaptiveUnits, AffinityUnits, CacheEvent, CacheOrg, CacheSession, CacheStats, CodeCache,
    EventBuffer, FineFifo, Generational, InsertReport, InsertRequest, LruCache, PreemptiveFlush,
    SuperblockId, UnitFifo,
};
use cce_util::{Rng, StdRng};

type OrgPair = (&'static str, Box<dyn CacheOrg>, Box<dyn CacheOrg>);

fn all_orgs(capacity: u64) -> Vec<OrgPair> {
    vec![
        (
            "unit_fifo(1)",
            Box::new(UnitFifo::new(capacity, 1).unwrap()),
            Box::new(UnitFifo::new(capacity, 1).unwrap()),
        ),
        (
            "unit_fifo(8)",
            Box::new(UnitFifo::new(capacity, 8).unwrap()),
            Box::new(UnitFifo::new(capacity, 8).unwrap()),
        ),
        (
            "fine_fifo",
            Box::new(FineFifo::new(capacity).unwrap()),
            Box::new(FineFifo::new(capacity).unwrap()),
        ),
        (
            "lru",
            Box::new(LruCache::new(capacity).unwrap()),
            Box::new(LruCache::new(capacity).unwrap()),
        ),
        (
            "preemptive",
            Box::new(PreemptiveFlush::new(capacity).unwrap()),
            Box::new(PreemptiveFlush::new(capacity).unwrap()),
        ),
        (
            "adaptive",
            Box::new(AdaptiveUnits::new(capacity, 4, 1, 64).unwrap()),
            Box::new(AdaptiveUnits::new(capacity, 4, 1, 64).unwrap()),
        ),
        (
            "affinity",
            Box::new(AffinityUnits::new(capacity, 4).unwrap()),
            Box::new(AffinityUnits::new(capacity, 4).unwrap()),
        ),
        (
            "generational",
            Box::new(Generational::new(capacity).unwrap()),
            Box::new(Generational::new(capacity).unwrap()),
        ),
    ]
}

#[test]
fn core_and_trait_paths_are_equivalent_for_every_org() {
    for (name, core_org, trait_org) in all_orgs(1024) {
        let mut core = CodeCache::new(core_org);
        let mut traited = CodeCache::new(trait_org);
        let mut rng = StdRng::seed_from_u64(0xEC0);
        let mut core_buf = EventBuffer::new();
        let mut trait_buf = EventBuffer::new();
        let mut miss_bytes = 0u64;
        for step in 0..600u32 {
            let id = SuperblockId(rng.gen_range(0..48u64));
            let size = rng.gen_range(16..128u32);
            let partner = rng
                .gen_bool(0.3)
                .then(|| SuperblockId(rng.gen_range(0..48u64)))
                .filter(|p| core.is_resident(*p));
            let req = InsertRequest::new(id, size).with_hint(partner);
            let access = core.access(id);
            trait_buf.clear();
            let outcome = traited
                .access_or_insert(req, &mut trait_buf)
                .unwrap_or_else(|e| panic!("{name}: trait insert failed: {e}"));
            assert_eq!(access, outcome.access, "{name}: access diverged at {step}");
            if access.is_miss() {
                miss_bytes += u64::from(size);
                core_buf.clear();
                let summary = core
                    .insert_request(req, &mut core_buf)
                    .unwrap_or_else(|e| panic!("{name}: core insert failed: {e}"));
                // Byte-identical settled streams from both entry points.
                assert_eq!(
                    core_buf.events(),
                    trait_buf.events(),
                    "{name}: event streams diverged at step {step}"
                );
                assert_eq!(Some(summary), outcome.inserted);
                // The settled stream reassembles into the owned report:
                // identical eviction sequences, unlink counts, byte totals.
                let report = InsertReport::from_events(core_buf.events());
                assert_eq!(summary.padding, report.padding);
                assert_eq!(summary.evictions as usize, report.evictions.len());
                assert_eq!(
                    summary.bytes_evicted,
                    report.evictions.iter().map(|e| e.bytes).sum::<u64>(),
                    "{name}: byte totals diverged at step {step}"
                );
                assert_eq!(
                    summary.links_unlinked,
                    report
                        .evictions
                        .iter()
                        .flat_map(|e| &e.unlinked)
                        .map(|&(_, n)| u64::from(n))
                        .sum::<u64>()
                );
                // Event-stream invariants on the settled stream.
                let mut depth = 0i32;
                for &ev in core_buf.events() {
                    match ev {
                        CacheEvent::EvictionBegin { .. } => depth += 1,
                        CacheEvent::EvictionEnd { .. } => depth -= 1,
                        _ => {}
                    }
                    assert!((0..=1).contains(&depth), "{name}: malformed nesting");
                }
                assert_eq!(depth, 0, "{name}: unbalanced EvictionBegin/End");
            } else {
                assert!(outcome.inserted.is_none());
                assert!(trait_buf.events().is_empty(), "{name}: a hit emits nothing");
            }
            if rng.gen_bool(0.4) {
                let to = SuperblockId(rng.gen_range(0..48u64));
                if core.is_resident(id) && core.is_resident(to) {
                    let (x, y) = (core.link(id, to).unwrap(), traited.link(id, to).unwrap());
                    assert_eq!(x, y, "{name}: link outcome diverged");
                }
            }
            assert_eq!(core.used(), traited.used(), "{name}: usage diverged");
        }
        assert_eq!(
            &CacheStats {
                miss_bytes,
                ..*core.stats()
            },
            traited.stats(),
            "{name}: final statistics diverged"
        );
        assert_eq!(
            core.org().resident_entries(),
            traited.org().resident_entries(),
            "{name}: resident sets diverged"
        );
    }
}
