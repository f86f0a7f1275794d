//! Cache organizations — the eviction-policy layer.
//!
//! A [`CacheOrg`] owns the placement of superblocks in the cache's byte
//! space and decides *what to evict* when an insertion needs room. It knows
//! nothing about superblock links; [`crate::CodeCache`] layers the link
//! graph and the derived statistics on top.
//!
//! Eviction decisions are *streamed*: the required
//! [`CacheOrg::insert_events`] writes [`CacheEvent`]s into a
//! caller-supplied [`EventSink`] (usually the cache's reusable scratch
//! buffer), so the hot path performs no per-insert heap allocation. The
//! legacy [`CacheOrg::insert`]/[`CacheOrg::insert_with_hint`] methods
//! survive as provided shims that materialize the stream into
//! [`RawInsert`] values for callers that still want owned reports.
//!
//! Provided organizations:
//!
//! | Type | Granularity | Paper reference |
//! |---|---|---|
//! | [`unit_fifo::UnitFifo`] | FLUSH / N-unit FIFO | §4, Figure 5 |
//! | [`fine_fifo::FineFifo`] | per-superblock FIFO | §4.2 (DynamoRIO) |
//! | [`preemptive::PreemptiveFlush`] | full flush on phase change | §2.3 (Dynamo) |
//! | [`lru::LruCache`] | per-superblock LRU (fragmenting baseline) | §3.3 |
//! | [`adaptive::AdaptiveUnits`] | pressure-adaptive unit count | §5.4 future work |
//! | [`affinity::AffinityUnits`] | link-affinity unit placement | §5.4 future work |
//! | [`generational::Generational`] | nursery + tenured regions | §2.2 / paper ref. 15 |

pub mod adaptive;
pub mod affinity;
pub mod fine_fifo;
pub mod generational;
pub mod lru;
pub mod preemptive;
pub mod unit_fifo;

use crate::error::CacheError;
use crate::events::{CacheEvent, EventBuffer, EventSink};
use crate::ids::{Granularity, SuperblockId, UnitId};
use std::fmt;

/// One invocation of the eviction mechanism: the set of superblocks it
/// removed, in eviction order.
///
/// The paper charges a *fixed* invocation cost plus a per-byte cost per
/// event (Eq. 2), so the grouping of evicted blocks into events is what the
/// granularity trade-off is about.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RawEviction {
    /// `(superblock, size_bytes)` pairs removed by this invocation.
    pub evicted: Vec<(SuperblockId, u32)>,
}

impl RawEviction {
    /// Total bytes freed by this invocation.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.evicted.iter().map(|&(_, s)| u64::from(s)).sum()
    }
}

/// The result of a successful insertion at the organization layer.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RawInsert {
    /// Eviction-mechanism invocations performed to make room (possibly
    /// empty).
    pub evictions: Vec<RawEviction>,
    /// Bytes lost to padding (e.g. the unused tail of a unit skipped
    /// because the incoming block did not fit).
    pub padding: u64,
}

impl RawInsert {
    /// Reassembles an owned report from an insertion's event stream.
    #[must_use]
    pub fn from_events(events: &[CacheEvent]) -> RawInsert {
        let mut report = RawInsert::default();
        let mut current: Option<RawEviction> = None;
        for &ev in events {
            match ev {
                CacheEvent::Padding { bytes } => report.padding += bytes,
                CacheEvent::EvictionBegin => current = Some(RawEviction::default()),
                CacheEvent::Evicted { id, size } => {
                    current
                        .as_mut()
                        .expect("Evicted outside EvictionBegin/End")
                        .evicted
                        .push((id, size));
                }
                CacheEvent::EvictionEnd { .. } => {
                    report
                        .evictions
                        .push(current.take().expect("EvictionEnd without EvictionBegin"));
                }
                _ => {}
            }
        }
        debug_assert!(current.is_none(), "unterminated eviction invocation");
        report
    }
}

/// A cache organization: placement plus eviction policy.
///
/// Implementations must be deterministic — identical operation sequences
/// must produce identical event streams — because the workspace's
/// experiments rely on reproducibility. `Send` is a supertrait so caches
/// can be built and driven inside the sweep runner's worker threads.
///
/// This trait is object-safe; [`crate::CodeCache`] stores a
/// `Box<dyn CacheOrg>` so user code can plug in custom policies (see the
/// `custom_policy` example at the workspace root).
pub trait CacheOrg: fmt::Debug + Send {
    /// Total capacity in bytes.
    fn capacity(&self) -> u64;

    /// Bytes currently occupied by resident superblocks (excluding
    /// padding).
    fn used(&self) -> u64;

    /// True if `id` is resident.
    fn contains(&self, id: SuperblockId) -> bool;

    /// The eviction unit currently holding `id`: `Some` exactly when
    /// [`CacheOrg::contains`] is true, because [`crate::CodeCache::link`]
    /// uses this one probe as its residency check too.
    ///
    /// Two superblocks in the same unit die together on a flush; that is
    /// what makes their links *intra-unit* (removable for free).
    fn unit_of(&self, id: SuperblockId) -> Option<UnitId>;

    /// Inserts `id` with the given byte size, streaming the eviction
    /// decisions into `sink`. This is the primary insertion entry point;
    /// it must emit, in order: an optional [`CacheEvent::Padding`], zero
    /// or more `EvictionBegin / Evicted+ / EvictionEnd` invocations, and
    /// a final [`CacheEvent::Inserted`]. Implementations must not buffer
    /// — events are written as decisions are made, so a reused sink sees
    /// no per-insert allocation.
    ///
    /// `partner` is a *placement hint*: a resident superblock the
    /// newcomer is about to be linked with (the chain source that
    /// triggered the regeneration). Placement-aware organizations
    /// (e.g. [`crate::AffinityUnits`]) co-locate the two to keep the link
    /// intra-unit; others ignore it.
    ///
    /// # Errors
    ///
    /// * [`CacheError::AlreadyResident`] if `id` is resident.
    /// * [`CacheError::ZeroSize`] if `size == 0`.
    /// * [`CacheError::BlockTooLarge`] if `size` exceeds the granule.
    fn insert_events(
        &mut self,
        id: SuperblockId,
        size: u32,
        partner: Option<SuperblockId>,
        sink: &mut dyn EventSink,
    ) -> Result<(), CacheError>;

    /// Legacy shim: inserts and materializes the event stream into an
    /// owned [`RawInsert`]. Allocates; prefer [`CacheOrg::insert_events`]
    /// on hot paths.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CacheOrg::insert_events`].
    fn insert(&mut self, id: SuperblockId, size: u32) -> Result<RawInsert, CacheError> {
        let mut buf = EventBuffer::new();
        self.insert_events(id, size, None, &mut buf)?;
        Ok(RawInsert::from_events(buf.events()))
    }

    /// Legacy shim: like [`CacheOrg::insert`], forwarding the placement
    /// hint.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CacheOrg::insert_events`].
    fn insert_with_hint(
        &mut self,
        id: SuperblockId,
        size: u32,
        partner: Option<SuperblockId>,
    ) -> Result<RawInsert, CacheError> {
        let mut buf = EventBuffer::new();
        self.insert_events(id, size, partner, &mut buf)?;
        Ok(RawInsert::from_events(buf.events()))
    }

    /// Number of resident superblocks.
    fn resident_count(&self) -> usize;

    /// Resident superblocks in an implementation-defined deterministic
    /// order.
    fn resident_blocks(&self) -> Vec<SuperblockId> {
        self.resident_entries()
            .into_iter()
            .map(|(id, _)| id)
            .collect()
    }

    /// Resident superblocks with their byte sizes, in the same
    /// deterministic order as [`CacheOrg::resident_blocks`].
    fn resident_entries(&self) -> Vec<(SuperblockId, u32)>;

    /// The granularity this organization implements.
    fn granularity(&self) -> Granularity;

    /// Evicts everything as a single invocation, streaming into `sink`.
    /// Returns `true` if anything was evicted (an empty cache emits no
    /// events).
    fn flush_events(&mut self, sink: &mut dyn EventSink) -> bool;

    /// Legacy shim: evicts everything as a single owned invocation, or
    /// `None` if the cache was already empty.
    fn flush_all(&mut self) -> Option<RawEviction> {
        let mut buf = EventBuffer::new();
        if !self.flush_events(&mut buf) {
            return None;
        }
        let mut all = RawEviction::default();
        for &ev in buf.events() {
            if let CacheEvent::Evicted { id, size } = ev {
                all.evicted.push((id, size));
            }
        }
        Some(all)
    }

    /// Feedback channel: called by [`crate::CodeCache`] after every access
    /// with the hit/miss outcome. Policies that react to runtime behaviour
    /// (preemptive flush, adaptive granularity) override this; the default
    /// is a no-op.
    fn note_access(&mut self, hit: bool) {
        let _ = hit;
    }

    /// Recency feedback: called by [`crate::CodeCache`] when `id` is hit.
    /// Only recency-aware policies (LRU) need to override this.
    fn note_hit(&mut self, id: SuperblockId) {
        let _ = id;
    }
}
