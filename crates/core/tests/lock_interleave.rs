//! Interleaving stress for the `ConcurrentCache` lock paths.
//!
//! The concurrent layer's deadlock-freedom rule is ownership: a
//! serving call takes exactly one tenant lock and releases it before
//! counting the access, and only the arbiter's review holds more than
//! one lock — **arbiter first, then every tenant in ascending index**
//! (DESIGN.md §12). This test attacks that rule dynamically: the
//! review runs every [`REVIEW_PERIOD`] accesses — so the full descent
//! executes hundreds of times per run — while every thread hammers
//! accesses, cross-shard links and flushes, on its own tenant and (in
//! the shared-handle case) on a tenant another thread is driving too.
//! A deadlock would show up as a watchdog timeout here rather than a
//! hung CI job.
//!
//! Workloads are seed-pinned xorshift streams; every case runs at 1, 2
//! and 4 threads.

use std::sync::{mpsc, Barrier};
use std::time::Duration;

use cce_core::{
    ArbiterConfig, CacheError, CacheOrg, CacheSession, ConcurrentSession, EventBuffer,
    InsertRequest, LruCache, OrgFactory, SuperblockId, TenantConfig, TenantId,
};

/// Per-tenant byte budget.
const CAPACITY: u64 = 2048;
/// Global accesses between arbiter reviews — tiny, so reviews fire
/// continuously under contention.
const REVIEW_PERIOD: u64 = 32;
/// Accesses per serving thread.
const ACCESSES: u64 = 2_000;
/// Generous bound for one thread's workload; only a lost lock ever
/// gets near it.
const WATCHDOG: Duration = Duration::from_secs(120);

fn factory() -> OrgFactory {
    Box::new(|c| Ok(Box::new(LruCache::new(c)?) as Box<dyn CacheOrg>))
}

fn arbiter() -> ArbiterConfig {
    ArbiterConfig {
        review_period: REVIEW_PERIOD,
        ..ArbiterConfig::default()
    }
}

fn session(tenants: usize, shards: u32) -> ConcurrentSession {
    let configs = (0..tenants)
        .map(|_| TenantConfig::new(CAPACITY, factory()))
        .collect();
    ConcurrentSession::new(configs, shards, Some(arbiter())).expect("geometry is valid")
}

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

/// Seed-pinned workload over a wide id range so consecutive ids land on
/// different shards: accesses with occasional hints, links between the
/// last two touched blocks (both shard orders occur), periodic flushes.
fn drive<S: CacheSession>(s: &mut S, seed: u64, buf: &mut EventBuffer) {
    drive_with(s, seed, buf, |linked| {
        linked.expect("both endpoints are resident");
    });
}

/// [`drive`] with the link outcome handed to `on_link`: a handle shared
/// between threads can lose an endpoint between the residency check and
/// the link, which an exclusively owned one cannot.
fn drive_with<S: CacheSession>(
    s: &mut S,
    seed: u64,
    buf: &mut EventBuffer,
    on_link: impl Fn(Result<bool, CacheError>),
) {
    let mut rng = 0x9e37_79b9_7f4a_7c15u64 ^ (seed.wrapping_mul(0x0100_0000_01b3) | 1);
    let mut last: Option<SuperblockId> = None;
    for step in 0..ACCESSES {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        let id = SuperblockId(rng % 97);
        let size = 24 + ((rng >> 9) % 101) as u32;
        let hint = if rng & 0x40 != 0 { last } else { None };
        match s.access_or_insert(InsertRequest::new(id, size).with_hint(hint), buf) {
            Ok(_) | Err(CacheError::BlockTooLarge { .. }) => {}
            Err(e) => panic!("unexpected cache error: {e}"),
        }
        if rng & 0x3 == 0 {
            if let Some(from) = last {
                if from != id && s.is_resident(from) && s.is_resident(id) {
                    on_link(s.link(from, id));
                }
            }
        }
        if step % 512 == 511 {
            s.flush(buf);
        }
        last = Some(id);
    }
    s.flush(buf);
}

#[test]
fn arbiter_reviews_interleave_with_serving_without_deadlock() {
    for threads in THREAD_COUNTS {
        for shards in [2u32, 4] {
            let sess = session(threads, shards);
            let (tx, rx) = mpsc::channel();
            let mut workers = Vec::new();
            for t in 0..threads {
                let mut tenant = sess.tenant(TenantId(t as u32));
                let tx = tx.clone();
                workers.push(std::thread::spawn(move || {
                    let mut buf = EventBuffer::new();
                    drive(&mut tenant, 0xC0FF_EE00 | t as u64, &mut buf);
                    tx.send(t).expect("main thread is waiting");
                    buf.events().len()
                }));
            }
            drop(tx);
            for _ in 0..threads {
                rx.recv_timeout(WATCHDOG).unwrap_or_else(|_| {
                    panic!(
                        "watchdog: a serving thread stalled \
                         ({threads} threads, {shards} shards) — possible deadlock"
                    )
                });
            }
            for w in workers {
                assert!(
                    w.join().expect("worker panicked") > 0,
                    "events were settled"
                );
            }

            // The arbiter really ran, and every decision conserved the
            // total budget while respecting the per-tenant floor.
            let total: u64 = CAPACITY * threads as u64;
            let cfg = arbiter();
            for d in sess.decisions() {
                assert_eq!(
                    d.capacities.iter().sum::<u64>(),
                    total,
                    "re-partitioning must conserve total capacity"
                );
                assert!(d.capacities.iter().all(|&c| c >= cfg.floor_bytes));
                assert!(d.bytes_moved > 0);
            }
            let assigned: u64 = (0..threads)
                .map(|t| sess.tenant_capacity(TenantId(t as u32)))
                .sum();
            assert_eq!(assigned, total, "final budgets sum to the initial total");
        }
    }
}

#[test]
fn two_threads_on_one_tenant_conserve_accesses_links_and_capacity() {
    // Two threads drive clones of the *same* tenant handle while the
    // arbiter keeps re-sizing that tenant against an idle one: the
    // tenant lock alone must keep every access, link and byte accounted.
    const THREADS: usize = 2;
    for shards in [2u32, 4] {
        let sess = session(2, shards);
        let shared = sess.tenant(TenantId(0));
        let start = Barrier::new(THREADS);
        let (tx, rx) = mpsc::channel();
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let mut tenant = shared.clone();
                let tx = tx.clone();
                let start = &start;
                scope.spawn(move || {
                    let mut buf = EventBuffer::new();
                    start.wait();
                    drive_with(
                        &mut tenant,
                        0x5AFE_0000 | t as u64,
                        &mut buf,
                        |linked| match linked {
                            Ok(_) | Err(CacheError::NotResident(_)) => {}
                            Err(e) => panic!("unexpected link error: {e}"),
                        },
                    );
                    tx.send(t).expect("main thread is waiting");
                });
            }
            for _ in 0..THREADS {
                rx.recv_timeout(WATCHDOG).unwrap_or_else(|_| {
                    panic!("watchdog: a thread sharing a tenant stalled ({shards} shards)")
                });
            }
        });

        let stats = sess.tenant_stats(TenantId(0));
        assert_eq!(stats.accesses, THREADS as u64 * ACCESSES);
        assert_eq!(stats.accesses, stats.hits + stats.misses);
        let (intra, inter) = shared.link_census();
        assert_eq!(
            stats.links_created,
            stats.links_unlinked + stats.links_dropped_free + intra + inter,
            "every link is unlinked, dropped free or still live"
        );
        assert_eq!(sess.tenant_stats(TenantId(1)).accesses, 0);

        let total = 2 * CAPACITY;
        let decisions = sess.decisions();
        assert!(
            !decisions.is_empty(),
            "the arbiter re-sized the shared tenant"
        );
        for d in decisions {
            assert_eq!(d.capacities.iter().sum::<u64>(), total);
        }
        let assigned = sess.tenant_capacity(TenantId(0)) + sess.tenant_capacity(TenantId(1));
        assert_eq!(assigned, total, "final budgets sum to the initial total");
    }
}

#[test]
fn single_threaded_interleave_is_reproducible() {
    // With one serving thread the whole run — arbiter decisions
    // included — must be bit-reproducible from the seed: if the lock
    // paths leaked any scheduling dependence into the serving results,
    // identical seeds would diverge.
    let run = || {
        let sess = session(1, 4);
        let mut tenant = sess.tenant(TenantId(0));
        let mut buf = EventBuffer::new();
        drive(&mut tenant, 0x00DE_C0DE, &mut buf);
        (buf.events().to_vec(), sess.decisions())
    };
    let (events_a, decisions_a) = run();
    let (events_b, decisions_b) = run();
    assert_eq!(events_a, events_b, "event streams must be identical");
    assert_eq!(
        decisions_a, decisions_b,
        "arbiter decisions must be identical"
    );
}
