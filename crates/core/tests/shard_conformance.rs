//! Sharding conformance (ISSUE 4 acceptance criteria).
//!
//! 1. A [`ShardedCache`] with **one** shard is event-stream
//!    byte-identical to the bare [`CodeCache`] it wraps — for every one
//!    of the seven organizations ([`testutil::assert_sessions_equivalent`]
//!    checks streams, summaries, statistics and link censuses).
//! 2. Under multi-shard eviction the link population is conserved:
//!    every link ever created is either still live (intra-shard,
//!    cross-shard) or accounted as unlinked / dropped-free.
//! 3. `CacheSession::transition` on a bare cache and on 1, 2 and 3
//!    shards is indistinguishable from the lookup → insert → chain call
//!    sequence it fuses, for every organization.
//! 4. Routing through the home-shard memo is the pure `jump_hash`
//!    function: every resident block sits in lane `shard_of(id)`.

use cce_core::idmap::DIRECT_IDS;
use cce_core::shard::{jump_hash, shard_capacities};
use cce_core::testutil::{
    assert_sessions_equivalent, assert_transition_matches_reference, TransitionCoverage,
};
use cce_core::{
    AdaptiveUnits, AffinityUnits, CacheOrg, CacheSession, CodeCache, FineFifo, Generational,
    Granularity, InsertRequest, LruCache, PreemptiveFlush, ShardedCache, SuperblockId, UnitFifo,
};

const ORGS: [&str; 8] = [
    "unit_fifo(1)",
    "unit_fifo(8)",
    "fine_fifo",
    "lru",
    "preemptive",
    "adaptive",
    "affinity",
    "generational",
];

fn org(kind: &str, capacity: u64) -> Box<dyn CacheOrg> {
    match kind {
        "unit_fifo(1)" => Box::new(UnitFifo::new(capacity, 1).unwrap()),
        "unit_fifo(8)" => Box::new(UnitFifo::new(capacity, 8).unwrap()),
        "fine_fifo" => Box::new(FineFifo::new(capacity).unwrap()),
        "lru" => Box::new(LruCache::new(capacity).unwrap()),
        "preemptive" => Box::new(PreemptiveFlush::new(capacity).unwrap()),
        "adaptive" => Box::new(AdaptiveUnits::new(capacity, 4, 1, 64).unwrap()),
        "affinity" => Box::new(AffinityUnits::new(capacity, 4).unwrap()),
        "generational" => Box::new(Generational::new(capacity).unwrap()),
        other => panic!("unknown organization {other}"),
    }
}

#[test]
fn single_shard_is_byte_identical_to_a_bare_cache_for_every_org() {
    for name in ORGS {
        let mut bare = CodeCache::new(org(name, 1024));
        let mut sharded =
            ShardedCache::new(vec![CodeCache::new(org(name, 1024))]).expect("one shard is valid");
        // The driver panics with the org baked into the assertion
        // context via this eprintln-free wrapper: run per-org so a
        // failure names the culprit.
        eprintln!("N=1 equivalence: {name}");
        assert_sessions_equivalent(&mut bare, &mut sharded, 800);
    }
}

#[test]
fn sharded_link_population_is_conserved_under_eviction() {
    for shards in [2u32, 4, 8] {
        for g in [
            Granularity::Flush,
            Granularity::units(4),
            Granularity::Superblock,
        ] {
            let mut cache = ShardedCache::with_granularity(g, 4096, shards).unwrap();
            let mut last: Option<SuperblockId> = None;
            let mut crossings = 0u64;
            for i in 0..2000u64 {
                let id = SuperblockId(i % 61);
                let out = cache
                    .access_or_insert_quiet(InsertRequest::new(id, 32 + (i % 7) as u32 * 16))
                    .expect("in-range insert");
                if out.is_miss() {
                    if let Some(from) = last {
                        if from != id
                            && cache.is_resident(from)
                            && cache.is_resident(id)
                            && cache.link(from, id).expect("both resident")
                            && cache.shard_of(from) != cache.shard_of(id)
                        {
                            crossings += 1;
                        }
                    }
                    last = Some(id);
                }
            }
            let stats = cache.stats_snapshot();
            let (intra, inter) = cache.link_census();
            assert!(stats.links_created > 0, "workload created no links");
            assert!(crossings > 0, "workload never crossed a shard boundary");
            assert_eq!(
                stats.links_created,
                stats.links_unlinked + stats.links_dropped_free + intra + inter,
                "census not conserved at shards={shards} g={g:?}"
            );
            // Flushing everything moves every live link into the
            // unlinked/dropped totals.
            cache.flush_report();
            let stats = cache.stats_snapshot();
            assert_eq!(cache.link_census(), (0, 0));
            assert_eq!(
                stats.links_created,
                stats.links_unlinked + stats.links_dropped_free,
                "flush leaked links at shards={shards} g={g:?}"
            );
        }
    }
}

#[test]
fn transition_matches_the_call_sequence_it_fuses_for_every_org() {
    let mut coverage = TransitionCoverage::default();
    for kind in ORGS {
        eprintln!("transition equivalence: {kind} bare");
        coverage += assert_transition_matches_reference(
            |log| {
                let mut cache = CodeCache::new(org(kind, 1024));
                cache.set_observer(log.observer());
                cache
            },
            600,
        );
        for shards in [1u32, 2, 3] {
            eprintln!("transition equivalence: {kind} shards={shards}");
            coverage += assert_transition_matches_reference(
                |log| {
                    let lanes = shard_capacities(1536, shards)
                        .into_iter()
                        .map(|c| {
                            let mut lane = CodeCache::new(org(kind, c));
                            lane.set_observer(log.observer());
                            lane
                        })
                        .collect();
                    ShardedCache::new(lanes).unwrap()
                },
                600,
            );
        }
    }
    eprintln!("{coverage:?}");
    assert!(coverage.self_loops > 0, "no from == id transition");
    assert!(coverage.too_large > 0, "no oversized block");
    assert!(
        coverage.hint_evicted > 0,
        "no hint evicted by its own insert"
    );
    assert!(coverage.links > 0, "no link created");
}

#[test]
fn every_resident_block_sits_in_its_home_lane() {
    // Dense ids, ids just past the direct-table bound and serve-style
    // `tenant << 32 | local` ids, so the memo is filled on both sides.
    let universe: Vec<SuperblockId> = (0..40u64)
        .chain((0..20).map(|k| DIRECT_IDS - 10 + k))
        .chain((0..20).map(|k| (k % 4) << 32 | k))
        .map(SuperblockId)
        .collect();
    for shards in [2u32, 3, 5] {
        let mut cache =
            ShardedCache::with_granularity(Granularity::units(4), 3072, shards).unwrap();
        // xorshift64: deterministic, no external deps.
        let mut rng = 0x5eed_0000_0000_0001u64 ^ u64::from(shards);
        let mut from = None;
        for _ in 0..3000 {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let id = universe[(rng >> 8) as usize % universe.len()];
            let size = 16 + (rng % 5) as u32 * 24;
            cache
                .transition(id, size, from, true, &mut cce_core::NullSink)
                .expect("in-range insert");
            from = Some(id);
        }
        let mut resident = 0;
        for s in 0..cache.shard_count() {
            for (id, _) in cache.shard(s).org().resident_entries() {
                assert_eq!(
                    cache.shard_of(id),
                    s,
                    "{id:?} off its home at {shards} shards"
                );
                resident += 1;
            }
        }
        assert!(resident > 0, "nothing resident at {shards} shards");
        for &id in &universe {
            let home = jump_hash(id.0, shards) as usize;
            assert_eq!(cache.shard_of(id), home, "memo disagrees for {id:?}");
            assert_eq!(cache.is_resident(id), cache.shard(home).is_resident(id));
        }
    }
}
