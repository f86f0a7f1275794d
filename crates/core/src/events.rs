//! The cache event stream — the zero-allocation spine of the workspace.
//!
//! Historically every [`crate::CacheOrg::insert`] heap-allocated a
//! `RawInsert` holding `Vec<RawEviction>` values, and each consumer
//! (the [`crate::CodeCache`] bookkeeping, the simulator's Eq. 2–4
//! overhead charging) re-walked those vectors. The event layer inverts
//! that: an organization *streams* [`CacheEvent`]s into a
//! caller-supplied [`EventSink`], the cache settles them in a single
//! traversal, and downstream layers consume a compact
//! [`crate::InsertSummary`] or subscribe via
//! [`crate::CodeCache::set_observer`]. In steady state the only storage
//! touched is a reusable scratch [`EventBuffer`] — no per-insert heap
//! allocation.
//!
//! Event grammar per insertion (as emitted by an organization):
//!
//! ```text
//! insert := Padding? ( EvictionBegin Evicted+ EvictionEnd )* Inserted
//! ```
//!
//! The settled stream produced by [`crate::CodeCache`] additionally
//! interleaves `Unlinked` after the `Evicted` events of blocks whose
//! incoming links had to be unpatched, and fills in
//! [`CacheEvent::EvictionEnd::links_dropped_free`]. `Hit`/`Miss` events
//! are emitted by [`crate::CodeCache::access`] to the observer only.
//!
//! One `EvictionBegin … EvictionEnd` run is one eviction invocation,
//! the unit Eq. 2 charges its fixed cost to, so the grammar is a type
//! rather than a convention. The four eviction variants are
//! `#[non_exhaustive]`: no crate but this one can construct them, and
//! outside it they are matched with `{ .. }`. Everywhere except the
//! cache's own settling code (`cache.rs`, `shard.rs`) they are emitted
//! through an [`EvictionScope`], which opens an invocation on its first
//! victim and closes it exactly once, in `Drop` if nothing closed it
//! first, so an early return or `?` cannot leave a run open.

use crate::ids::SuperblockId;

/// One cache lifecycle event. `Copy`, 16 bytes — streams allocation-free.
///
/// The eviction variants are sealed: other crates read them, matching
/// with `{ .. }`, and emit them only through an [`EvictionScope`].
///
/// ```
/// use cce_core::{CacheEvent, EventBuffer, EvictionScope, SuperblockId};
///
/// let mut buf = EventBuffer::new();
/// let mut scope = EvictionScope::new(&mut buf);
/// scope.evict(SuperblockId(1), 64);
/// scope.unlinked(2);
/// scope.close(1);
/// let invocations = buf
///     .events()
///     .iter()
///     .filter(|e| matches!(e, CacheEvent::EvictionBegin { .. }))
///     .count();
/// assert_eq!(invocations, 1);
/// assert!(matches!(
///     buf.events()[3],
///     CacheEvent::EvictionEnd { bytes: 64, links_dropped_free: 1, .. }
/// ));
/// ```
///
/// None of them can be built outside `cce-core`:
///
/// ```compile_fail,E0603
/// let _ = cce_core::CacheEvent::EvictionBegin;
/// ```
///
/// ```compile_fail,E0639
/// let _ = cce_core::CacheEvent::Evicted { id: cce_core::SuperblockId(1), size: 8 };
/// ```
///
/// ```compile_fail,E0639
/// let _ = cce_core::CacheEvent::EvictionEnd { bytes: 8, links_dropped_free: 0 };
/// ```
///
/// ```compile_fail,E0639
/// let _ = cce_core::CacheEvent::Unlinked { id: cce_core::SuperblockId(1), links: 1 };
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheEvent {
    /// A lookup found `id` resident.
    Hit {
        /// The superblock looked up.
        id: SuperblockId,
    },
    /// A lookup missed; `cold` distinguishes compulsory from capacity.
    Miss {
        /// The superblock looked up.
        id: SuperblockId,
        /// True for a first-ever (compulsory) miss.
        cold: bool,
    },
    /// `id` was placed in the cache (always the final event of an insert).
    Inserted {
        /// The newly resident superblock.
        id: SuperblockId,
        /// Its size in bytes.
        size: u32,
    },
    /// Bytes lost to unit padding before this insertion was placed.
    Padding {
        /// Padded (skipped) bytes.
        bytes: u64,
    },
    /// An eviction-mechanism invocation starts (Eq. 2 fixed cost).
    #[non_exhaustive]
    EvictionBegin,
    /// One superblock removed by the current invocation.
    #[non_exhaustive]
    Evicted {
        /// The removed superblock.
        id: SuperblockId,
        /// Its size in bytes.
        size: u32,
    },
    /// The current invocation is complete.
    #[non_exhaustive]
    EvictionEnd {
        /// Total bytes freed by the invocation (Eq. 2 per-byte cost).
        bytes: u64,
        /// Links dropped without unpatching work (both endpoints died
        /// together, or the source died taking its patched jump along).
        /// Organizations emit 0; the settled stream carries the real
        /// count.
        links_dropped_free: u64,
    },
    /// An evicted block had `links` incoming links from survivors that
    /// were unpatched through the back-pointer table (Eq. 4's
    /// `numLinks`). Settled stream only.
    #[non_exhaustive]
    Unlinked {
        /// The evicted block whose incoming links were unpatched.
        id: SuperblockId,
        /// Number of links unpatched.
        links: u32,
    },
}

/// A consumer of cache events.
///
/// Object-safe: organizations take `&mut dyn EventSink` so the trait
/// object can be a scratch buffer, a channel, a metrics counter, …
pub trait EventSink {
    /// Receives one event.
    fn event(&mut self, event: CacheEvent);
}

/// A reusable, growable event buffer.
///
/// [`crate::CodeCache`] keeps one of these as scratch: cleared (capacity
/// retained) before every insertion, so the hot path stops allocating
/// once the high-water event count is reached.
#[derive(Debug, Clone, Default)]
pub struct EventBuffer {
    events: Vec<CacheEvent>,
}

impl EventBuffer {
    /// Creates an empty buffer.
    #[must_use]
    pub fn new() -> EventBuffer {
        EventBuffer::default()
    }

    /// Clears the buffer, retaining its allocation.
    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// The buffered events, in emission order.
    #[must_use]
    pub fn events(&self) -> &[CacheEvent] {
        &self.events
    }

    /// Number of buffered events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if no events are buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The event at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    #[must_use]
    pub fn get(&self, index: usize) -> CacheEvent {
        self.events[index]
    }
}

impl EventSink for EventBuffer {
    fn event(&mut self, event: CacheEvent) {
        self.events.push(event);
    }
}

/// A sink that discards every event.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl EventSink for NullSink {
    fn event(&mut self, _event: CacheEvent) {}
}

/// A forwarding sink that counts eviction invocations — used by
/// composite organizations (e.g. [`crate::AdaptiveUnits`]) that need to
/// know how many invocations an inner insert produced without buffering
/// the stream.
pub struct CountingSink<'a> {
    inner: &'a mut dyn EventSink,
    invocations: u64,
}

impl<'a> CountingSink<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut dyn EventSink) -> CountingSink<'a> {
        CountingSink {
            inner,
            invocations: 0,
        }
    }

    /// Eviction invocations seen so far.
    #[must_use]
    pub fn invocations(&self) -> u64 {
        self.invocations
    }
}

impl EventSink for CountingSink<'_> {
    fn event(&mut self, event: CacheEvent) {
        if matches!(event, CacheEvent::EvictionBegin) {
            self.invocations += 1;
        }
        self.inner.event(event);
    }
}

/// Emits one eviction invocation: lazily opens it on the first victim
/// and closes it exactly once, with the byte total, on [`Self::close`] or
/// [`Self::finish`], or in `Drop` on any other way out of the scope.
///
/// This keeps the "no empty invocations" invariant without the
/// organization having to know up front whether any block will actually
/// die (the generational nursery, for instance, may promote everything).
pub struct EvictionScope<'a> {
    sink: &'a mut dyn EventSink,
    /// The latest victim while an invocation is open.
    open: Option<SuperblockId>,
    bytes: u64,
}

impl<'a> EvictionScope<'a> {
    /// Creates a scope writing into `sink`.
    pub fn new(sink: &'a mut dyn EventSink) -> EvictionScope<'a> {
        EvictionScope {
            sink,
            open: None,
            bytes: 0,
        }
    }

    /// Reports one evicted block, opening the invocation if needed.
    pub fn evict(&mut self, id: SuperblockId, size: u32) {
        if self.open.is_none() {
            self.sink.event(CacheEvent::EvictionBegin);
        }
        self.open = Some(id);
        self.bytes += u64::from(size);
        self.sink.event(CacheEvent::Evicted { id, size });
    }

    /// Reports that the block just evicted had `links` incoming links
    /// from survivors unpatched (Eq. 4). No-op before the first victim.
    pub fn unlinked(&mut self, links: u32) {
        if let Some(id) = self.open {
            self.sink.event(CacheEvent::Unlinked { id, links });
        }
    }

    /// Closes the invocation, recording `links_dropped_free` links that
    /// died without unpatching work. Returns true if any block was
    /// evicted.
    pub fn close(mut self, links_dropped_free: u64) -> bool {
        self.end(links_dropped_free)
    }

    /// [`Self::close`] with no links dropped for free, as organizations
    /// (which never see links) close their invocations.
    pub fn finish(self) -> bool {
        self.close(0)
    }

    fn end(&mut self, links_dropped_free: u64) -> bool {
        if self.open.take().is_none() {
            return false;
        }
        self.sink.event(CacheEvent::EvictionEnd {
            bytes: self.bytes,
            links_dropped_free,
        });
        true
    }
}

impl Drop for EvictionScope<'_> {
    fn drop(&mut self) {
        self.end(0);
    }
}

/// A subscriber to the settled event stream of a [`crate::CodeCache`]
/// (see [`crate::CodeCache::set_observer`]). `Send` so an observing
/// cache can move across the sweep runner's worker threads.
pub trait CacheObserver: Send {
    /// Receives one settled event.
    fn on_event(&mut self, event: CacheEvent);
}

impl<F: FnMut(CacheEvent) + Send> CacheObserver for F {
    fn on_event(&mut self, event: CacheEvent) {
        self(event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sb(n: u64) -> SuperblockId {
        SuperblockId(n)
    }

    #[test]
    fn events_are_small_and_copy() {
        // The zero-allocation contract leans on cheap event moves.
        assert!(std::mem::size_of::<CacheEvent>() <= 24);
        let e = CacheEvent::Hit { id: sb(1) };
        let f = e; // Copy
        assert_eq!(e, f);
    }

    #[test]
    fn buffer_retains_capacity_across_clears() {
        let mut buf = EventBuffer::new();
        for i in 0..64 {
            buf.event(CacheEvent::Hit { id: sb(i) });
        }
        let cap_events = buf.events.capacity();
        buf.clear();
        assert!(buf.is_empty());
        assert_eq!(buf.events.capacity(), cap_events);
    }

    #[test]
    fn eviction_scope_is_lazy() {
        let mut buf = EventBuffer::new();
        let scope = EvictionScope::new(&mut buf);
        assert!(!scope.finish(), "no victims, no invocation");
        assert!(buf.is_empty());

        let mut scope = EvictionScope::new(&mut buf);
        scope.evict(sb(1), 10);
        scope.evict(sb(2), 30);
        assert!(scope.finish());
        assert_eq!(
            buf.events(),
            &[
                CacheEvent::EvictionBegin,
                CacheEvent::Evicted {
                    id: sb(1),
                    size: 10
                },
                CacheEvent::Evicted {
                    id: sb(2),
                    size: 30
                },
                CacheEvent::EvictionEnd {
                    bytes: 40,
                    links_dropped_free: 0
                },
            ]
        );
    }

    #[test]
    fn eviction_scope_closes_on_every_exit() {
        fn evict_two(sink: &mut dyn EventSink, bail: Option<()>) -> Option<bool> {
            let mut scope = EvictionScope::new(sink);
            scope.evict(sb(1), 10);
            scope.evict(sb(2), 30);
            bail?;
            Some(scope.finish())
        }
        let ends = |buf: &EventBuffer| -> Vec<CacheEvent> {
            buf.events()
                .iter()
                .copied()
                .filter(|e| matches!(e, CacheEvent::EvictionEnd { .. }))
                .collect()
        };
        let end = CacheEvent::EvictionEnd {
            bytes: 40,
            links_dropped_free: 0,
        };

        let mut left_early = EventBuffer::new();
        assert_eq!(evict_two(&mut left_early, None), None);
        assert_eq!(ends(&left_early), [end], "Drop closes the run once");
        assert_eq!(left_early.events().last(), Some(&end));

        let mut finished = EventBuffer::new();
        assert_eq!(evict_two(&mut finished, Some(())), Some(true));
        assert_eq!(finished.events(), left_early.events());

        let mut closed = EventBuffer::new();
        let mut scope = EvictionScope::new(&mut closed);
        scope.evict(sb(3), 8);
        scope.unlinked(2);
        assert!(scope.close(5));
        assert_eq!(
            closed.events(),
            &[
                CacheEvent::EvictionBegin,
                CacheEvent::Evicted { id: sb(3), size: 8 },
                CacheEvent::Unlinked {
                    id: sb(3),
                    links: 2
                },
                CacheEvent::EvictionEnd {
                    bytes: 8,
                    links_dropped_free: 5
                },
            ]
        );
    }

    #[test]
    fn counting_sink_counts_invocations_only() {
        let mut buf = EventBuffer::new();
        let mut counter = CountingSink::new(&mut buf);
        counter.event(CacheEvent::Padding { bytes: 4 });
        counter.event(CacheEvent::EvictionBegin);
        counter.event(CacheEvent::Evicted { id: sb(1), size: 8 });
        counter.event(CacheEvent::EvictionEnd {
            bytes: 8,
            links_dropped_free: 0,
        });
        counter.event(CacheEvent::EvictionBegin);
        assert_eq!(counter.invocations(), 2);
        assert_eq!(buf.len(), 5, "all events forwarded");
    }

    #[test]
    fn closures_are_observers() {
        let mut hits = 0u32;
        let mut obs = |ev: CacheEvent| {
            if matches!(ev, CacheEvent::Hit { .. }) {
                hits += 1;
            }
        };
        obs.on_event(CacheEvent::Hit { id: sb(1) });
        obs.on_event(CacheEvent::Miss {
            id: sb(2),
            cold: true,
        });
        assert_eq!(hits, 1);
    }
}
