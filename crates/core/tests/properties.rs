//! Randomized tests over the code-cache invariants.
//!
//! These drive seeded random access/insert/link workloads (deterministic
//! xoshiro256++ streams from `cce-util`, so failures reproduce exactly)
//! through every cache organization and assert the bookkeeping identities
//! that the paper's overhead models depend on (if these break, every
//! figure downstream is garbage).

use cce_core::{CodeCache, Granularity, InsertRequest, LinkGraph, NullSink, SuperblockId};
use cce_util::{Rng, StdRng};
use std::collections::BTreeSet;

/// A randomly generated workload step.
#[derive(Debug, Clone)]
enum Op {
    /// Touch superblock `id` of `size` bytes: access, insert on miss.
    Touch { id: u64, size: u32 },
    /// Try to chain `from → to` (ignored unless both resident).
    Link { from: u64, to: u64 },
}

fn random_ops(rng: &mut StdRng, count: usize, max_id: u64, max_size: u32) -> Vec<Op> {
    (0..count)
        .map(|_| {
            if rng.gen_range(0..5u32) < 4 {
                Op::Touch {
                    id: rng.gen_range(0..max_id),
                    size: rng.gen_range(1..=max_size),
                }
            } else {
                Op::Link {
                    from: rng.gen_range(0..max_id),
                    to: rng.gen_range(0..max_id),
                }
            }
        })
        .collect()
}

fn random_granularity(rng: &mut StdRng) -> Granularity {
    match rng.gen_range(0..3u32) {
        0 => Granularity::Flush,
        1 => Granularity::units(1 << rng.gen_range(1..=6u32)),
        _ => Granularity::Superblock,
    }
}

/// Runs `ops` against a fresh cache, asserting step invariants, and
/// returns the cache for end-state checks.
fn run_workload(g: Granularity, capacity: u64, ops: &[Op]) -> CodeCache {
    let mut cache = CodeCache::with_granularity(g, capacity).expect("valid geometry");
    for op in ops {
        match *op {
            Op::Touch { id, size } => {
                let id = SuperblockId(id);
                let r = cache.access(id);
                if r.is_miss() {
                    match cache.insert_request(InsertRequest::new(id, size), &mut NullSink) {
                        Ok(_) => {}
                        Err(cce_core::CacheError::BlockTooLarge { .. }) => continue,
                        Err(e) => panic!("unexpected insert failure: {e}"),
                    }
                    assert!(cache.is_resident(id), "inserted block must be resident");
                }
            }
            Op::Link { from, to } => {
                let from = SuperblockId(from);
                let to = SuperblockId(to);
                if cache.is_resident(from) && cache.is_resident(to) {
                    cache.link(from, to).expect("both endpoints are resident");
                } else {
                    assert!(cache.link(from, to).is_err());
                }
            }
        }
        assert!(cache.used() <= cache.capacity(), "over-full cache");
    }
    cache
}

#[test]
fn accounting_identities_hold() {
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(0xACC0 + seed);
        let g = random_granularity(&mut rng);
        let count = rng.gen_range(1..400usize);
        let ops = random_ops(&mut rng, count, 64, 120);
        let cache = run_workload(g, 512, &ops);
        let s = cache.stats();
        // Access identity.
        assert_eq!(s.accesses, s.hits + s.misses);
        assert_eq!(s.misses, s.cold_misses + s.capacity_misses);
        // Byte conservation: everything inserted is either resident or was
        // evicted.
        assert_eq!(s.bytes_inserted, s.bytes_evicted + cache.used());
        // Block conservation.
        assert_eq!(
            s.insertions,
            s.blocks_evicted + cache.resident_count() as u64
        );
        // Link conservation: created = unlinked + dropped free + live.
        assert_eq!(
            s.links_created,
            s.links_unlinked + s.links_dropped_free + cache.link_graph().link_count()
        );
        // High-water marks bound current state.
        assert!(s.high_water_bytes <= cache.capacity());
        assert!(cache.used() <= s.high_water_bytes || s.insertions == 0);
    }
}

#[test]
fn flush_and_one_unit_are_equivalent() {
    for seed in 0..32u64 {
        let mut rng = StdRng::seed_from_u64(0xF1 + seed);
        let count = rng.gen_range(1..300usize);
        let ops = random_ops(&mut rng, count, 48, 100);
        let a = run_workload(Granularity::Flush, 400, &ops);
        let b = run_workload(Granularity::units(1), 400, &ops);
        assert_eq!(a.stats(), b.stats());
    }
}

#[test]
fn flush_policy_never_unlinks() {
    for seed in 0..32u64 {
        let mut rng = StdRng::seed_from_u64(0xF2 + seed);
        let count = rng.gen_range(1..300usize);
        let ops = random_ops(&mut rng, count, 48, 100);
        let cache = run_workload(Granularity::Flush, 400, &ops);
        assert_eq!(cache.stats().unlink_operations, 0);
        assert_eq!(cache.stats().inter_unit_links_created, 0);
    }
}

#[test]
fn finer_granularity_never_misses_more_on_scan_free_reuse() {
    for seed in 0..16u64 {
        let mut rng = StdRng::seed_from_u64(0x5CA + seed);
        let count = rng.gen_range(50..200usize);
        // A repeated-touch workload (every block touched twice in a row):
        // back-to-back touches always hit under any policy.
        let mut ops = Vec::new();
        for _ in 0..count {
            let id = rng.gen_range(0..32u64);
            let size = rng.gen_range(40..80u32);
            ops.push(Op::Touch { id, size });
            ops.push(Op::Touch { id, size });
        }
        let coarse = run_workload(Granularity::Flush, 256, &ops);
        let fine = run_workload(Granularity::Superblock, 256, &ops);
        // Immediate-reuse hits exist under both.
        assert!(fine.stats().hits >= count as u64);
        assert!(coarse.stats().hits >= count as u64);
    }
}

#[test]
fn eviction_invocations_monotone_in_granularity() {
    for seed in 0..16u64 {
        let mut rng = StdRng::seed_from_u64(0xE111 + seed);
        let count = rng.gen_range(100..300usize);
        // Coarser granularities must invoke eviction at most as often as
        // the finest FIFO on the same workload (the premise of Figure 8).
        let ops: Vec<Op> = (0..count)
            .map(|_| Op::Touch {
                id: rng.gen_range(0..64u64),
                size: rng.gen_range(30..60u32),
            })
            .collect();
        let fine = run_workload(Granularity::Superblock, 512, &ops);
        for g in [
            Granularity::Flush,
            Granularity::units(4),
            Granularity::units(16),
        ] {
            let c = run_workload(g, 512, &ops);
            assert!(
                c.stats().eviction_invocations <= fine.stats().eviction_invocations,
                "{} invoked {} > fine {}",
                g,
                c.stats().eviction_invocations,
                fine.stats().eviction_invocations
            );
        }
    }
}

#[test]
fn resident_blocks_enumeration_matches_count() {
    for seed in 0..32u64 {
        let mut rng = StdRng::seed_from_u64(0xE003 + seed);
        let g = random_granularity(&mut rng);
        let count = rng.gen_range(1..200usize);
        let ops = random_ops(&mut rng, count, 64, 120);
        let cache = run_workload(g, 512, &ops);
        let blocks = cache.org().resident_blocks();
        assert_eq!(blocks.len(), cache.resident_count());
        for b in blocks {
            assert!(cache.is_resident(b));
            assert!(cache.unit_of(b).is_some());
        }
    }
}

#[test]
fn lru_org_upholds_identities_too() {
    use cce_core::LruCache;
    let mut cache = CodeCache::new(Box::new(LruCache::new(512).unwrap()));
    for i in 0..200u64 {
        let id = SuperblockId(i % 37);
        let size = 20 + (i % 7) as u32 * 13;
        if cache.access(id).is_miss() {
            cache
                .insert_request(
                    cce_core::InsertRequest::new(id, size),
                    &mut cce_core::NullSink,
                )
                .unwrap();
        }
        if i.is_multiple_of(3) {
            let to = SuperblockId((i + 5) % 37);
            if cache.is_resident(id) && cache.is_resident(to) {
                cache.link(id, to).unwrap();
            }
        }
    }
    let s = cache.stats();
    assert_eq!(s.accesses, s.hits + s.misses);
    assert_eq!(s.bytes_inserted, s.bytes_evicted + cache.used());
    assert_eq!(
        s.links_created,
        s.links_unlinked + s.links_dropped_free + cache.link_graph().link_count()
    );
}

/// The flat [`LinkGraph`] against the obviously-correct model it
/// replaced: an ordered set of `(from, to)` pairs. Ids come from a small
/// universe so duplicates, self links and re-adds after a removal are
/// frequent.
#[test]
fn link_graph_matches_an_ordered_pair_set_model() {
    const IDS: u64 = 12;
    for seed in 0..16u64 {
        let mut rng = StdRng::seed_from_u64(0x11C5 + seed);
        let mut graph = LinkGraph::new();
        let mut model: BTreeSet<(SuperblockId, SuperblockId)> = BTreeSet::new();
        for step in 0..600 {
            match rng.gen_range(0..20u32) {
                0 => {
                    graph.clear();
                    model.clear();
                }
                1..=4 => {
                    let id = SuperblockId(rng.gen_range(0..IDS));
                    graph.remove_block(id);
                    model.retain(|&(from, to)| from != id && to != id);
                }
                _ => {
                    let from = SuperblockId(rng.gen_range(0..IDS));
                    // One add in six is a self link.
                    let to = match rng.gen_range(0..6u32) {
                        0 => from,
                        _ => SuperblockId(rng.gen_range(0..IDS)),
                    };
                    assert_eq!(
                        graph.add_link(from, to),
                        model.insert((from, to)),
                        "seed {seed} step {step}: add {from} -> {to}"
                    );
                }
            }
            let at = format!("seed {seed} step {step}");
            assert_eq!(graph.link_count(), model.len() as u64, "{at}");
            let mut links: Vec<_> = graph.iter_links().collect();
            links.sort_unstable();
            assert!(
                links.iter().eq(model.iter()),
                "{at}: {links:?} vs {model:?}"
            );
            for id in (0..IDS).map(SuperblockId) {
                let sources: Vec<_> = model
                    .iter()
                    .filter(|&&(_, to)| to == id)
                    .map(|&(from, _)| from)
                    .collect();
                let fan_out = model.iter().filter(|&&(from, _)| from == id).count();
                assert_eq!(graph.in_degree(id), sources.len(), "{at}: in_degree({id})");
                assert_eq!(graph.out_degree(id), fan_out, "{at}: out_degree({id})");
                let mut incoming: Vec<_> = graph.incoming_iter(id).collect();
                incoming.sort_unstable();
                assert_eq!(incoming, sources, "{at}: incoming_iter({id})");
                for other in (0..IDS).map(SuperblockId) {
                    assert_eq!(
                        graph.contains_link(id, other),
                        model.contains(&(id, other)),
                        "{at}: contains_link({id}, {other})"
                    );
                }
            }
        }
    }
}

mod extension_orgs {
    //! The accounting identities, re-checked over the extension
    //! organizations (affinity placement, generational, preemptive,
    //! adaptive) with randomized workloads and hinted insertions.

    use cce_core::{
        AdaptiveUnits, AffinityUnits, CacheOrg, CodeCache, Generational, InsertRequest, NullSink,
        PreemptiveFlush, SuperblockId,
    };
    use cce_util::{Rng, StdRng};

    #[derive(Debug, Clone)]
    enum Op {
        Touch {
            id: u64,
            size: u32,
            partner: Option<u64>,
        },
        Link {
            from: u64,
            to: u64,
        },
    }

    fn random_op(rng: &mut StdRng) -> Op {
        if rng.gen_range(0..5u32) < 4 {
            Op::Touch {
                id: rng.gen_range(0..48u64),
                size: rng.gen_range(16..96u32),
                partner: rng.gen_bool(0.5).then(|| rng.gen_range(0..48u64)),
            }
        } else {
            Op::Link {
                from: rng.gen_range(0..48u64),
                to: rng.gen_range(0..48u64),
            }
        }
    }

    fn build(kind: u8, capacity: u64) -> CodeCache {
        let org: Box<dyn CacheOrg> = match kind {
            0 => Box::new(AffinityUnits::new(capacity, 4).expect("geometry")),
            1 => Box::new(Generational::new(capacity).expect("geometry")),
            2 => Box::new(PreemptiveFlush::new(capacity).expect("geometry")),
            _ => Box::new(AdaptiveUnits::new(capacity, 4, 1, 64).expect("geometry")),
        };
        CodeCache::new(org)
    }

    #[test]
    fn extension_orgs_uphold_accounting() {
        for seed in 0..48u64 {
            let mut rng = StdRng::seed_from_u64(0xE07 + seed);
            let kind = rng.gen_range(0..4u32) as u8;
            let count = rng.gen_range(1..300usize);
            let mut cache = build(kind, 640);
            for _ in 0..count {
                match random_op(&mut rng) {
                    Op::Touch { id, size, partner } => {
                        let id = SuperblockId(id);
                        if cache.access(id).is_miss() {
                            let hint = partner.map(SuperblockId).filter(|p| cache.is_resident(*p));
                            let req = InsertRequest::new(id, size).with_hint(hint);
                            match cache.insert_request(req, &mut NullSink) {
                                Ok(_) => assert!(cache.is_resident(id)),
                                Err(cce_core::CacheError::BlockTooLarge { .. }) => {}
                                Err(e) => panic!("unexpected insert failure: {e}"),
                            }
                        }
                    }
                    Op::Link { from, to } => {
                        let (from, to) = (SuperblockId(from), SuperblockId(to));
                        if cache.is_resident(from) && cache.is_resident(to) {
                            cache.link(from, to).expect("resident endpoints");
                        }
                    }
                }
                assert!(cache.used() <= cache.capacity());
            }
            let s = cache.stats();
            assert_eq!(s.accesses, s.hits + s.misses);
            assert_eq!(s.misses, s.cold_misses + s.capacity_misses);
            assert_eq!(s.bytes_inserted, s.bytes_evicted + cache.used());
            assert_eq!(
                s.insertions,
                s.blocks_evicted + cache.resident_count() as u64
            );
            assert_eq!(
                s.links_created,
                s.links_unlinked + s.links_dropped_free + cache.link_graph().link_count()
            );
            // Resident enumeration agrees with membership and units exist.
            let entries = cache.org().resident_entries();
            assert_eq!(entries.len(), cache.resident_count());
            for (id, size) in entries {
                assert!(cache.is_resident(id));
                assert!(size > 0);
                assert!(cache.unit_of(id).is_some());
            }
        }
    }

    #[test]
    fn census_never_counts_self_links_as_inter() {
        for seed in 0..24u64 {
            let mut rng = StdRng::seed_from_u64(0xCE45 + seed);
            let kind = rng.gen_range(0..4u32) as u8;
            let count = rng.gen_range(10..60usize);
            let mut cache = build(kind, 2048);
            for _ in 0..count {
                let id = SuperblockId(rng.gen_range(0..32u64));
                if cache.access(id).is_miss() {
                    let _ = cache.insert_request(InsertRequest::new(id, 64), &mut NullSink);
                }
                if cache.is_resident(id) {
                    cache.link(id, id).expect("self link on resident block");
                }
            }
            let (_, inter) = cache.link_census();
            // Only self-links were created, so the census must see zero
            // inter-unit links under every organization.
            let only_self = cache.link_graph().iter_links().all(|(a, b)| a == b);
            assert!(only_self);
            assert_eq!(inter, 0);
        }
    }
}
