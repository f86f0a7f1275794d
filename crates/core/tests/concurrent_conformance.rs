//! Concurrent-serving conformance (ISSUE 6 acceptance criteria).
//!
//! 1. One tenant on a [`ConcurrentSession`] is event-stream
//!    byte-identical to a bare [`ShardedCache`] of the same geometry —
//!    for all eight organizations and shard counts {1, 2, 4}
//!    ([`testutil::assert_sessions_equivalent`] checks streams,
//!    summaries, statistics and link censuses step by step).
//! 2. In an N-tenant, T-thread run, **every tenant's** event stream,
//!    statistics and link census are byte-identical to that tenant
//!    running alone single-threaded on its own sharded cache — for all
//!    eight organizations, shard counts {1, 2, 4} and T ∈ {1, 2, 4}.

use cce_core::testutil::assert_sessions_equivalent;
use cce_core::{
    AdaptiveUnits, AffinityUnits, CacheError, CacheOrg, CacheSession, CodeCache, ConcurrentSession,
    EventBuffer, FineFifo, Generational, InsertRequest, LruCache, OrgFactory, PreemptiveFlush,
    ShardedCache, SuperblockId, TenantConfig, TenantId, UnitFifo,
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

const SHARD_COUNTS: [u32; 3] = [1, 2, 4];
const CAPACITY: u64 = 2048;
const TENANTS: u32 = 4;

fn org_factory(kind: &'static str) -> OrgFactory {
    Box::new(move |c| {
        Ok(match kind {
            "unit_fifo(1)" => Box::new(UnitFifo::new(c, 1)?) as Box<dyn CacheOrg>,
            "unit_fifo(8)" => Box::new(UnitFifo::new(c, 8)?),
            "fine_fifo" => Box::new(FineFifo::new(c)?),
            "lru" => Box::new(LruCache::new(c)?),
            "preemptive" => Box::new(PreemptiveFlush::new(c)?),
            "adaptive" => Box::new(AdaptiveUnits::new(c, 4, 1, 64)?),
            "affinity" => Box::new(AffinityUnits::new(c, 4)?),
            "generational" => Box::new(Generational::new(c)?),
            other => panic!("unknown organization {other}"),
        })
    })
}

/// A solo sharded cache with the exact same per-shard organizations a
/// tenant's lanes get.
fn solo_sharded(kind: &'static str, shards: u32) -> ShardedCache {
    let factory = org_factory(kind);
    let caches = cce_core::shard::shard_capacities(CAPACITY, shards)
        .into_iter()
        .map(|c| CodeCache::new(factory(c).unwrap()))
        .collect();
    ShardedCache::new(caches).unwrap()
}

fn concurrent(kind: &'static str, tenants: u32, shards: u32) -> ConcurrentSession {
    let configs = (0..tenants)
        .map(|_| TenantConfig::new(CAPACITY, org_factory(kind)))
        .collect();
    ConcurrentSession::new(configs, shards, None).unwrap()
}

#[test]
fn one_tenant_is_byte_identical_to_a_sharded_cache() {
    for kind in ORGS {
        for shards in SHARD_COUNTS {
            let session = concurrent(kind, 1, shards);
            let mut tenant = session.tenant(TenantId(0));
            let mut solo = solo_sharded(kind, shards);
            assert_sessions_equivalent(&mut tenant, &mut solo, 500);
        }
    }
}

/// Deterministic per-tenant workload, seeded by tenant index: inserts
/// with hints, chains, and a final flush — every settled event lands in
/// `buf` in order.
fn drive<S: CacheSession>(session: &mut S, seed: u64, buf: &mut EventBuffer) {
    let mut rng = 0x9e37_79b9_7f4a_7c15u64 ^ (seed.wrapping_mul(0x0100_0000_01b3) | 1);
    let mut last: Option<SuperblockId> = None;
    for _ in 0..800 {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        let id = SuperblockId(rng % 53);
        let size = 24 + ((rng >> 9) % 101) as u32;
        let hint = if rng & 0x40 != 0 { last } else { None };
        match session.access_or_insert(InsertRequest::new(id, size).with_hint(hint), buf) {
            Ok(_) | Err(CacheError::BlockTooLarge { .. }) => {}
            Err(e) => panic!("unexpected cache error: {e}"),
        }
        if rng & 0x3 == 0 {
            if let Some(from) = last {
                if from != id && session.is_resident(from) && session.is_resident(id) {
                    session.link(from, id).unwrap();
                }
            }
        }
        last = Some(id);
    }
    session.flush(buf);
}

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

#[test]
fn every_tenant_stream_matches_its_solo_run() {
    for threads in THREAD_COUNTS {
        for kind in ORGS {
            for shards in SHARD_COUNTS {
                let session = concurrent(kind, TENANTS, shards);
                // Thread j serves tenants j, j+T, …; each records its
                // tenants' settled streams in private buffers.
                let mut streams: Vec<(u32, EventBuffer)> = std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..threads)
                        .map(|j| {
                            let session = &session;
                            scope.spawn(move || {
                                let mut out = Vec::new();
                                let mut t = j as u32;
                                while t < TENANTS {
                                    let mut tenant = session.tenant(TenantId(t));
                                    let mut buf = EventBuffer::new();
                                    drive(&mut tenant, u64::from(t), &mut buf);
                                    out.push((t, buf));
                                    t += threads as u32;
                                }
                                out
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .flat_map(|h| h.join().expect("worker panicked"))
                        .collect()
                });
                streams.sort_by_key(|(t, _)| *t);
                assert_eq!(streams.len(), TENANTS as usize);
                for (t, buf) in streams {
                    let mut solo = solo_sharded(kind, shards);
                    let mut solo_buf = EventBuffer::new();
                    drive(&mut solo, u64::from(t), &mut solo_buf);
                    let label = format!("{kind}/shards={shards}/threads={threads}/tenant={t}");
                    assert_eq!(
                        buf.events(),
                        solo_buf.events(),
                        "{label}: event streams diverged"
                    );
                    let tenant = session.tenant(TenantId(t));
                    assert_eq!(
                        tenant.stats_snapshot(),
                        solo.stats_snapshot(),
                        "{label}: statistics diverged"
                    );
                    assert_eq!(
                        tenant.link_census(),
                        solo.link_census(),
                        "{label}: link censuses diverged"
                    );
                }
            }
        }
    }
}
