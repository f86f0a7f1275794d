//! Reusable conformance checks for [`CacheOrg`] implementations.
//!
//! Promoted from an internal `#[cfg(test)]` module so out-of-crate
//! policies (the `custom_policy` example, downstream experiments) can
//! validate themselves against the same contract the seven built-in
//! organizations satisfy. Call [`conformance`] from a test with a fresh
//! instance of your organization:
//!
//! ```
//! use cce_core::{testutil, UnitFifo};
//! testutil::conformance(Box::new(UnitFifo::new(1024, 8).unwrap()));
//! ```
//!
//! The suite drives a generic overflow workload through both the event
//! stream ([`CacheOrg::insert_events`]) and the legacy shim, asserting:
//!
//! * residency, usage and enumeration invariants after every insert,
//!   including `unit_of(id).is_some() == contains(id)` for every id;
//! * rejection of duplicate / zero-sized / oversized insertions;
//! * event-grammar invariants — every `EvictionBegin` is closed by an
//!   `EvictionEnd`, invocations are never empty, the byte total carried
//!   by `EvictionEnd` equals the sum of its `Evicted` sizes **and** the
//!   bytes actually freed, and every insert ends with `Inserted`;
//! * `flush_events`/`flush_all` empty the cache as a single invocation.

use crate::error::CacheError;
use crate::events::{CacheEvent, CacheObserver, EventBuffer};
use crate::ids::SuperblockId;
use crate::org::CacheOrg;
use crate::session::{CacheSession, InsertRequest};
use std::sync::{Arc, Mutex, PoisonError};

/// Checks the event grammar of one insertion's stream and returns the
/// total bytes reported evicted.
///
/// # Panics
///
/// Panics if the stream violates the grammar described in the module
/// docs.
pub fn check_event_grammar(events: &[CacheEvent], id: SuperblockId, size: u32) -> u64 {
    let mut in_invocation = false;
    let mut invocation_bytes = 0u64;
    let mut invocation_blocks = 0usize;
    let mut total_evicted = 0u64;
    let mut inserted_seen = false;
    for (i, &ev) in events.iter().enumerate() {
        assert!(
            !inserted_seen,
            "Inserted must terminate the stream, got {ev:?} after it"
        );
        match ev {
            CacheEvent::Padding { bytes } => {
                assert!(!in_invocation, "Padding inside an invocation");
                assert!(bytes > 0, "zero-byte Padding event");
            }
            CacheEvent::EvictionBegin => {
                assert!(!in_invocation, "nested EvictionBegin at event {i}");
                in_invocation = true;
                invocation_bytes = 0;
                invocation_blocks = 0;
            }
            CacheEvent::Evicted { size, .. } => {
                assert!(in_invocation, "Evicted outside an invocation");
                invocation_bytes += u64::from(size);
                invocation_blocks += 1;
            }
            CacheEvent::EvictionEnd { bytes, .. } => {
                assert!(in_invocation, "EvictionEnd without EvictionBegin");
                assert!(invocation_blocks > 0, "empty eviction invocation");
                assert_eq!(
                    bytes, invocation_bytes,
                    "EvictionEnd byte total disagrees with Evicted events"
                );
                total_evicted += invocation_bytes;
                in_invocation = false;
            }
            CacheEvent::Inserted {
                id: iid,
                size: isize,
            } => {
                assert!(!in_invocation, "Inserted inside an invocation");
                assert_eq!((iid, isize), (id, size), "Inserted carries wrong block");
                inserted_seen = true;
            }
            #[expect(
                clippy::panic,
                reason = "a conformance check fails by panicking, like assert!"
            )]
            CacheEvent::Hit { .. } | CacheEvent::Miss { .. } | CacheEvent::Unlinked { .. } => {
                panic!("organizations must not emit {ev:?}");
            }
        }
    }
    assert!(!in_invocation, "unterminated eviction invocation");
    assert!(inserted_seen, "stream did not end with Inserted");
    total_evicted
}

/// Drives `org` through a generic workload and checks the invariants
/// every organization must uphold.
///
/// # Panics
///
/// Panics (with a diagnostic) on any contract violation.
#[expect(
    clippy::expect_used,
    reason = "a conformance check fails by panicking, like assert!"
)]
pub fn conformance(mut org: Box<dyn CacheOrg>) {
    let cap = org.capacity();
    assert!(cap > 0);
    assert_eq!(org.used(), 0);
    assert_eq!(org.resident_count(), 0);

    // Insert blocks of varied sizes until well past capacity, checking
    // the event stream of every insertion.
    let mut next = 0u64;
    let sizes = [64u32, 96, 48, 128, 80, 56, 112, 72];
    let mut inserted = Vec::new();
    let mut buf = EventBuffer::new();
    while inserted.iter().map(|&(_, s)| u64::from(s)).sum::<u64>() < cap * 3 {
        let id = SuperblockId(next);
        let size = sizes[(next as usize) % sizes.len()];
        next += 1;
        let used_before = org.used();
        buf.clear();
        org.insert_events(id, size, None, &mut buf)
            .expect("insert must succeed");
        inserted.push((id, size));
        let evicted_bytes = check_event_grammar(buf.events(), id, size);
        // Bytes reported via events equal bytes actually freed.
        assert_eq!(
            org.used(),
            used_before + u64::from(size) - evicted_bytes,
            "event byte totals disagree with the usage delta"
        );
        // Evicted blocks must no longer be resident; the insertee must.
        for &ev in buf.events() {
            if let CacheEvent::Evicted { id: eid, .. } = ev {
                assert!(!org.contains(eid), "evicted {eid} still resident");
            }
        }
        assert!(org.contains(id));
        // `unit_of` doubles as the residency probe in `CodeCache::link`,
        // so it must answer `Some` for exactly the resident blocks —
        // the insertee, the victims and a never-inserted id included.
        for probe in (0..=next).map(SuperblockId) {
            assert_eq!(
                org.unit_of(probe).is_some(),
                org.contains(probe),
                "unit_of and contains disagree on {probe}"
            );
        }
        // Usage never exceeds capacity.
        assert!(org.used() <= cap, "used {} > capacity {cap}", org.used());
        assert_eq!(
            org.resident_blocks().len(),
            org.resident_count(),
            "resident enumeration disagrees with count"
        );
    }

    // Duplicate insertion is rejected (via the legacy shim, which must
    // stay wired to the event path).
    #[expect(
        clippy::unwrap_used,
        reason = "the fill loop above inserted at least one block"
    )]
    let last = inserted.last().unwrap().0;
    assert!(matches!(
        org.insert(last, 64),
        Err(CacheError::AlreadyResident(_))
    ));

    // Zero-size insertion is rejected.
    assert!(matches!(
        org.insert(SuperblockId(u64::MAX), 0),
        Err(CacheError::ZeroSize(_))
    ));

    // Oversized insertion is rejected.
    let too_big = u32::try_from(cap + 1).unwrap_or(u32::MAX);
    assert!(matches!(
        org.insert(SuperblockId(u64::MAX - 1), too_big),
        Err(CacheError::BlockTooLarge { .. })
    ));

    // Failed insertions must leave no events behind.
    buf.clear();
    assert!(org
        .insert_events(SuperblockId(u64::MAX), 0, None, &mut buf)
        .is_err());
    assert!(buf.is_empty(), "failed insert leaked events");

    // flush_events empties the cache as one invocation.
    let used_before_flush = org.used();
    buf.clear();
    assert!(org.flush_events(&mut buf), "cache was nonempty");
    let mut begins = 0;
    let mut flushed_bytes = 0u64;
    for &ev in buf.events() {
        match ev {
            CacheEvent::EvictionBegin => begins += 1,
            CacheEvent::EvictionEnd { bytes, .. } => flushed_bytes += bytes,
            CacheEvent::Evicted { .. } => {}
            #[expect(
                clippy::panic,
                reason = "a conformance check fails by panicking, like assert!"
            )]
            other => panic!("flush emitted non-eviction event {other:?}"),
        }
    }
    assert_eq!(begins, 1, "flush must be a single invocation");
    assert_eq!(flushed_bytes, used_before_flush);
    assert_eq!(org.used(), 0);
    assert_eq!(org.resident_count(), 0);
    assert!(
        (0..next).all(|i| org.unit_of(SuperblockId(i)).is_none()),
        "a flushed block still has a unit"
    );
    assert!(org.flush_all().is_none());
}

/// Drives two [`CacheSession`]s through the same deterministic churn
/// workload (hinted inserts, chaining, re-accesses, a final flush) and
/// asserts they are **event-stream byte-identical** at every step, with
/// matching statistics and link censuses afterwards.
///
/// This is the redesign's safety net: a `ShardedCache` with one shard
/// must be indistinguishable from the bare [`crate::CodeCache`] it wraps,
/// for every organization.
///
/// # Panics
///
/// Panics (with the step number and both streams) on the first
/// divergence.
pub fn assert_sessions_equivalent<A: CacheSession, B: CacheSession>(
    a: &mut A,
    b: &mut B,
    steps: u64,
) {
    assert_eq!(a.capacity(), b.capacity(), "capacities must match");
    let mut buf_a = EventBuffer::new();
    let mut buf_b = EventBuffer::new();
    // xorshift64: deterministic, no external deps.
    let mut rng = 0x9e37_79b9_7f4a_7c15u64;
    let mut step = || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let mut last: Option<SuperblockId> = None;
    for i in 0..steps {
        let r = step();
        let id = SuperblockId(r % 37);
        let size = 32 + (r >> 8) % 97;
        let hint = last.filter(|_| r & 0x10 != 0);
        let req = InsertRequest::new(id, size as u32).with_hint(hint);
        buf_a.clear();
        buf_b.clear();
        let out_a = a.access_or_insert(req, &mut buf_a);
        let out_b = b.access_or_insert(req, &mut buf_b);
        assert_eq!(out_a, out_b, "step {i}: outcomes diverged for {id}");
        assert_eq!(
            buf_a.events(),
            buf_b.events(),
            "step {i}: event streams diverged for {id}"
        );
        if out_a.is_ok() {
            if let Some(from) = last {
                let can = a.is_resident(from) && a.is_resident(id) && from != id;
                assert_eq!(
                    can,
                    b.is_resident(from) && b.is_resident(id) && from != id,
                    "step {i}: residency diverged"
                );
                if can {
                    assert_eq!(
                        a.link(from, id),
                        b.link(from, id),
                        "step {i}: link diverged"
                    );
                }
            }
            last = Some(id);
        }
        assert_eq!(a.used(), b.used(), "step {i}: usage diverged");
        assert_eq!(
            a.resident_count(),
            b.resident_count(),
            "step {i}: population diverged"
        );
    }
    buf_a.clear();
    buf_b.clear();
    assert_eq!(
        a.flush(&mut buf_a),
        b.flush(&mut buf_b),
        "flush summaries diverged"
    );
    assert_eq!(buf_a.events(), buf_b.events(), "flush streams diverged");
    assert_eq!(
        a.stats_snapshot(),
        b.stats_snapshot(),
        "statistics diverged"
    );
    assert_eq!(a.link_census(), b.link_census(), "link censuses diverged");
}

/// A shared log of settled events: every [`ObserverLog::observer`] it
/// hands out appends to it, so the lanes of a sharded cache can share
/// one log.
#[derive(Debug, Clone, Default)]
pub struct ObserverLog(Arc<Mutex<Vec<CacheEvent>>>);

impl ObserverLog {
    /// A new observer appending to this log; install it with
    /// [`crate::CodeCache::set_observer`].
    #[must_use]
    pub fn observer(&self) -> Box<dyn CacheObserver> {
        let log = Arc::clone(&self.0);
        Box::new(move |ev| log.lock().unwrap_or_else(PoisonError::into_inner).push(ev))
    }

    /// Removes and returns everything logged so far.
    #[must_use]
    pub fn take(&self) -> Vec<CacheEvent> {
        std::mem::take(&mut *self.0.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

/// How often [`assert_transition_matches_reference`]'s workload hit
/// the edge cases of a transition; callers assert these are nonzero
/// over their suite.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransitionCoverage {
    /// Transitions with `from == id`.
    pub self_loops: u64,
    /// Transitions whose block exceeded the capacity
    /// ([`CacheError::BlockTooLarge`]).
    pub too_large: u64,
    /// Hinted misses whose own insert evicted the hint.
    pub hint_evicted: u64,
    /// `link` calls the reference sequence made.
    pub links: u64,
}

impl std::ops::AddAssign for TransitionCoverage {
    fn add_assign(&mut self, other: TransitionCoverage) {
        self.self_loops += other.self_loops;
        self.too_large += other.too_large;
        self.hint_evicted += other.hint_evicted;
        self.links += other.links;
    }
}

/// Builds two sessions with `make` and drives one seeded transition
/// trace through both: [`CacheSession::transition`] on the first, and
/// on the second the sequence it replaces — `is_resident(from)` for the
/// hint, [`CacheSession::access_or_insert`], then
/// `is_resident(from) && is_resident(id)` and [`CacheSession::link`].
/// `make` receives an [`ObserverLog`] per session to wire into any
/// [`crate::CodeCache`] it builds.
///
/// After every step the outcomes, the sink streams, the observer
/// streams, the statistics and the link censuses must be equal. The
/// trace includes `from == id` transitions, blocks larger than the
/// whole cache and unchained transitions.
///
/// # Panics
///
/// Panics (with the step number) on the first divergence.
pub fn assert_transition_matches_reference<S: CacheSession>(
    mut make: impl FnMut(&ObserverLog) -> S,
    steps: u64,
) -> TransitionCoverage {
    let (log_a, log_b) = (ObserverLog::default(), ObserverLog::default());
    let mut fused = make(&log_a);
    let mut reference = make(&log_b);
    let too_large = u32::try_from(fused.capacity() + 1).unwrap_or(u32::MAX);
    let mut buf_a = EventBuffer::new();
    let mut buf_b = EventBuffer::new();
    let mut coverage = TransitionCoverage::default();
    // xorshift64: deterministic, no external deps.
    let mut rng = 0x2545_f491_4f6c_dd1du64;
    let mut last: Option<SuperblockId> = None;
    for i in 0..steps {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        let id = SuperblockId(rng % 37);
        let size = if rng & 0xf0 == 0 {
            too_large
        } else {
            32 + ((rng >> 8) % 97) as u32
        };
        let from = match (rng >> 20) & 0xf {
            0 => Some(id),
            1..=3 => None,
            _ => last,
        };
        let chain = (rng >> 24) & 0x7 != 0;
        buf_a.clear();
        buf_b.clear();
        let out_a = fused.transition(id, size, from, chain, &mut buf_a);

        let hint = from.filter(|&f| reference.is_resident(f));
        let req = InsertRequest::new(id, size).with_hint(hint);
        let out_b = reference.access_or_insert(req, &mut buf_b);
        if let (Some(from), Ok(_)) = (hint, &out_b) {
            coverage.hint_evicted += u64::from(!reference.is_resident(from));
        }
        if matches!(out_b, Ok(_) | Err(CacheError::BlockTooLarge { .. })) && chain {
            if let Some(from) = from {
                if reference.is_resident(from) && reference.is_resident(id) {
                    let linked = reference.link(from, id);
                    assert!(
                        linked.is_ok(),
                        "step {i}: reference link failed: {linked:?}"
                    );
                    coverage.links += 1;
                }
            }
        }
        coverage.self_loops += u64::from(from == Some(id));
        coverage.too_large += u64::from(matches!(out_b, Err(CacheError::BlockTooLarge { .. })));

        assert_eq!(out_a, out_b, "step {i}: outcomes diverged for {id}");
        assert_eq!(
            buf_a.events(),
            buf_b.events(),
            "step {i}: sink streams diverged for {id}"
        );
        assert_eq!(
            log_a.take(),
            log_b.take(),
            "step {i}: observer streams diverged for {id}"
        );
        assert_eq!(
            fused.stats_snapshot(),
            reference.stats_snapshot(),
            "step {i}: statistics diverged for {id}"
        );
        assert_eq!(
            fused.link_census(),
            reference.link_census(),
            "step {i}: link censuses diverged for {id}"
        );
        if out_b.is_ok() {
            last = Some(id);
        }
    }
    coverage
}
