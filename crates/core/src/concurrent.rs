//! Concurrent multi-tenant serving: [`ConcurrentSession`].
//!
//! The ROADMAP's production-scale step: N guest programs (tenants) are
//! served **concurrently**, the way a shared dynamic-optimization
//! service would host several translated processes. The design keeps
//! three properties the single-threaded layers already guarantee:
//!
//! * **Per-tenant determinism.** Every tenant owns a private
//!   [`ShardedCache`] — its lanes, its cross-shard link graph — built
//!   with the same [`shard_capacities`] split and routed by the same
//!   jump hash a solo sharded cache uses. A tenant's event stream and
//!   [`CacheStats`] are therefore **byte-identical** to that tenant
//!   running alone single-threaded, no matter how the global
//!   interleaving schedules the other tenants (enforced by
//!   `tests/concurrent_conformance.rs`).
//! * **Deadlock freedom by ownership.** There is one lock per tenant
//!   and one for the arbiter. A serving call takes only its own
//!   tenant's lock: a replay holds it once for a whole fed slice
//!   ([`CacheSession::hold`]) when there is no arbiter, and once per
//!   event when there is one, dropping it mid-event when the access
//!   completes a review epoch so the review runs with no tenant lock
//!   held. Only the arbiter's review ever holds more than one lock —
//!   the arbiter lock first, then every tenant lock in ascending
//!   tenant index.
//!   `tests/lock_interleave.rs` attacks that rule under real scheduling.
//! * **Honest accounting.** Cross-shard links are charged by the
//!   tenant's own sharded cache, and a capacity re-partition pays for
//!   itself: lanes are flushed (severing their cross-shard links at
//!   real Eq. 4 cost), re-sized via [`crate::CodeCache::replace_org`]
//!   (statistics and the `seen` set survive) and re-populated block by
//!   block.
//!
//! Capacity arbitration follows Memshare (Cidon et al., ATC'17): every
//! `review_period` accesses the arbiter compares tenants by **ghost
//! benefit** — capacity misses accumulated over a decayed window, per
//! byte of capacity. Each such miss is a block the tenant once held and
//! lost, i.e. a hit its lane would have served with more room. When the
//! neediest tenant's benefit exceeds the most-satisfied tenant's by the
//! hysteresis factor, a fixed fraction of the donor's bytes moves over,
//! and the re-partition is recorded as an [`ArbiterDecision`] so
//! reallocations are observable and replayable.

use crate::cache::{AccessResult, CodeCache, InsertSummary};
use crate::error::CacheError;
use crate::events::EventSink;
use crate::ids::{Granularity, SuperblockId};
use crate::org::fine_fifo::FineFifo;
use crate::org::unit_fifo::UnitFifo;
use crate::org::CacheOrg;
use crate::session::{AccessOutcome, CacheSession, InsertRequest};
use crate::shard::{shard_capacities, ShardedCache};
use crate::stats::CacheStats;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Identifies one tenant (one guest program) of a [`ConcurrentSession`];
/// tenants are numbered densely from zero in declaration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub u32);

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant{}", self.0)
    }
}

/// Builds one lane's organization at a given capacity. The arbiter calls
/// this again at new capacities when it re-partitions, so the closure
/// must be pure in everything but the capacity argument.
pub type OrgFactory = Box<dyn Fn(u64) -> Result<Box<dyn CacheOrg>, CacheError> + Send + Sync>;

/// One tenant's declaration: its total byte budget (split over the
/// shards exactly like a solo [`crate::shard::ShardedCache`]) and the
/// organization its lanes run.
pub struct TenantConfig {
    /// Total capacity across all shards, in bytes.
    pub capacity: u64,
    /// Lane organization factory.
    pub factory: OrgFactory,
}

impl TenantConfig {
    /// A tenant with an explicit organization factory.
    #[must_use]
    pub fn new(capacity: u64, factory: OrgFactory) -> TenantConfig {
        TenantConfig { capacity, factory }
    }

    /// A tenant running one of the paper's granularities, mirroring
    /// [`CodeCache::with_granularity`].
    #[must_use]
    pub fn with_granularity(g: Granularity, capacity: u64) -> TenantConfig {
        TenantConfig::new(
            capacity,
            Box::new(move |c| {
                Ok(match g {
                    Granularity::Flush => Box::new(UnitFifo::new(c, 1)?) as Box<dyn CacheOrg>,
                    Granularity::Units(n) => Box::new(UnitFifo::new(c, n.get())?),
                    Granularity::Superblock => Box::new(FineFifo::new(c)?),
                })
            }),
        )
    }
}

impl fmt::Debug for TenantConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TenantConfig")
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

/// Tuning knobs of the Memshare-style capacity arbiter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArbiterConfig {
    /// Global accesses between reviews.
    pub review_period: u64,
    /// Ghost-window decay per review (`0.0` = only the last window,
    /// `1.0` = never forget).
    pub decay: f64,
    /// A transfer moves `donor_capacity / transfer_divisor` bytes.
    pub transfer_divisor: u64,
    /// The recipient's per-byte benefit must exceed the donor's by this
    /// factor before any bytes move (guards against thrashing swaps).
    pub hysteresis: f64,
    /// No tenant is ever shrunk below this many bytes.
    pub floor_bytes: u64,
}

impl Default for ArbiterConfig {
    fn default() -> ArbiterConfig {
        ArbiterConfig {
            review_period: 4096,
            decay: 0.5,
            transfer_divisor: 8,
            hysteresis: 1.25,
            floor_bytes: 1024,
        }
    }
}

/// One recorded re-partition: which tenant donated how many bytes to
/// whom, and what the move cost in cache contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArbiterDecision {
    /// The review (1-based epoch of `review_period` accesses) that made
    /// this decision.
    pub review: u64,
    /// The tenant that gave up capacity.
    pub donor: TenantId,
    /// The tenant that received it.
    pub recipient: TenantId,
    /// Bytes moved from donor to recipient.
    pub bytes_moved: u64,
    /// Every tenant's assigned byte budget after the move, by tenant
    /// index; the sum is invariant across decisions. (A lane's
    /// organization may round its slice down internally, e.g. a
    /// unit-FIFO truncating to a unit multiple, exactly as in a solo
    /// sharded cache.)
    pub capacities: Vec<u64>,
    /// Blocks that survived the two rebuilds (flush + re-insert).
    pub blocks_reinserted: u64,
    /// Blocks dropped because they no longer fit their re-sized lane.
    pub blocks_dropped: u64,
}

/// One tenant behind its lock: the tenant's private sharded cache and
/// the factory the arbiter re-sizes it with.
struct Tenant {
    cache: ShardedCache,
    factory: OrgFactory,
}

impl Tenant {
    /// Builds one replacement organization per shard at a new total
    /// budget, or `None` when the factory rejects a slice.
    fn build_orgs(&self, total: u64) -> Option<Vec<Box<dyn CacheOrg>>> {
        shard_capacities(total, self.cache.shard_count() as u32)
            .into_iter()
            .map(|c| (self.factory)(c).ok())
            .collect()
    }
}

/// One tenant's lock on cache lines of its own: threads serving
/// neighbouring tenants then never write the same line.
#[repr(align(128))]
struct TenantSlot(Mutex<Tenant>);

/// The Memshare-style arbiter: the global access counter that paces
/// its reviews, and its mutable state behind the one lock that is
/// always taken before any tenant lock.
struct Arbiter {
    /// Global accesses between reviews (at least 1).
    review_period: u64,
    /// Global access counter driving review epochs.
    accesses: AtomicU64,
    state: Mutex<ArbiterState>,
}

#[derive(Debug)]
struct ArbiterState {
    config: ArbiterConfig,
    /// Last completed review epoch.
    reviews: u64,
    /// Decayed ghost-hit window per tenant (capacity-miss deltas).
    ghosts: Vec<f64>,
    /// Capacity-miss totals at the previous review, per tenant.
    last_capacity_misses: Vec<u64>,
    /// Assigned byte budgets per tenant; the sum never changes.
    budgets: Vec<u64>,
    decisions: Vec<ArbiterDecision>,
}

/// The shared concurrent cache: one lock per tenant, an optional
/// arbiter on top. All serving methods take `&self`;
/// [`ConcurrentSession`] hands out clones of one `Arc` of this.
struct ConcurrentCache {
    tenants: Vec<TenantSlot>,
    arbiter: Option<Arbiter>,
    shard_count: usize,
}

impl fmt::Debug for ConcurrentCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ConcurrentCache")
            .field("shards", &self.shard_count)
            .field("tenants", &self.tenants.len())
            .field("arbiter", &self.arbiter.is_some())
            .finish()
    }
}

impl ConcurrentCache {
    /// Every tenant's budget is split over `shard_count` shards exactly
    /// like a solo sharded cache.
    fn build(
        tenants: Vec<TenantConfig>,
        shard_count: u32,
        arbiter: Option<ArbiterConfig>,
    ) -> Result<ConcurrentCache, CacheError> {
        if tenants.is_empty() || shard_count == 0 {
            return Err(CacheError::ZeroCapacity);
        }
        let n = tenants.len();
        let budgets: Vec<u64> = tenants.iter().map(|tc| tc.capacity).collect();
        let tenants = tenants
            .into_iter()
            .map(|tc| {
                let lanes = shard_capacities(tc.capacity, shard_count)
                    .into_iter()
                    .map(|c| Ok(CodeCache::new((tc.factory)(c)?)))
                    .collect::<Result<Vec<_>, CacheError>>()?;
                Ok(TenantSlot(Mutex::new(Tenant {
                    cache: ShardedCache::new(lanes)?,
                    factory: tc.factory,
                })))
            })
            .collect::<Result<Vec<_>, CacheError>>()?;
        Ok(ConcurrentCache {
            tenants,
            arbiter: arbiter.map(|config| Arbiter {
                review_period: config.review_period.max(1),
                accesses: AtomicU64::new(0),
                state: Mutex::new(ArbiterState {
                    config,
                    reviews: 0,
                    ghosts: vec![0.0; n],
                    last_capacity_misses: vec![0; n],
                    budgets,
                    decisions: Vec::new(),
                }),
            }),
            shard_count: shard_count as usize,
        })
    }

    /// Locks one tenant. Lane state is a cache, so a panicking thread
    /// must not brick the tenant: poisoning is ignored.
    fn lock_tenant(&self, tenant: TenantId) -> MutexGuard<'_, Tenant> {
        self.tenants[tenant.0 as usize]
            .0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Counts one access toward the review epoch and runs a review when
    /// the epoch boundary is crossed. Callers must have released their
    /// tenant lock first.
    fn note_access(&self) {
        if let Some(epoch) = self.count_access() {
            self.review(epoch);
        }
    }

    /// Counts one access toward the review epoch; returns the epoch
    /// this access completes, whose review the caller must run once it
    /// holds no tenant lock. Safe to call under a tenant lock: it only
    /// touches an atomic. Without an arbiter nobody reads the count, so
    /// nothing is counted.
    fn count_access(&self) -> Option<u64> {
        let arbiter = self.arbiter.as_ref()?;
        let n = arbiter.accesses.fetch_add(1, Ordering::Relaxed) + 1;
        n.is_multiple_of(arbiter.review_period)
            .then(|| n / arbiter.review_period)
    }

    fn decisions(&self) -> Vec<ArbiterDecision> {
        self.arbiter.as_ref().map_or_else(Vec::new, |a| {
            a.state
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .decisions
                .clone()
        })
    }

    /// One Memshare review: refresh the decayed ghost windows from the
    /// per-tenant capacity-miss deltas, and move a slice of capacity
    /// from the least- to the most-constrained tenant when the benefit
    /// gap clears the hysteresis bar. The only function that holds more
    /// than one lock: the arbiter lock, then every tenant lock in
    /// ascending index, so concurrent serving calls simply wait.
    fn review(&self, epoch: u64) {
        let Some(arbiter) = &self.arbiter else { return };
        let mut ast = arbiter.state.lock().unwrap_or_else(PoisonError::into_inner);
        if epoch <= ast.reviews {
            return; // a racing thread already covered this epoch
        }
        let mut tenants: Vec<MutexGuard<'_, Tenant>> = self
            .tenants
            .iter()
            .map(|m| m.0.lock().unwrap_or_else(PoisonError::into_inner))
            .collect();
        let ntenants = tenants.len();
        ast.reviews = epoch;
        let config = ast.config;
        for (t, tenant) in tenants.iter().enumerate() {
            let misses = tenant.cache.capacity_misses();
            let fresh = misses.saturating_sub(ast.last_capacity_misses[t]);
            ast.last_capacity_misses[t] = misses;
            ast.ghosts[t] = ast.ghosts[t] * config.decay + fresh as f64;
        }
        if ntenants < 2 {
            return;
        }
        let benefit: Vec<f64> = (0..ntenants)
            .map(|t| ast.ghosts[t] / ast.budgets[t].max(1) as f64)
            .collect();
        let recipient = arg_extreme(&benefit, |a, b| a > b);
        let donor = arg_extreme(&benefit, |a, b| a < b);
        if donor == recipient || benefit[recipient] <= config.hysteresis * benefit[donor] {
            return;
        }
        let step = (ast.budgets[donor] / config.transfer_divisor.max(1))
            .min(ast.budgets[donor].saturating_sub(config.floor_bytes));
        if step == 0 {
            return;
        }
        let donor_cap = ast.budgets[donor] - step;
        let recipient_cap = ast.budgets[recipient] + step;
        // Build every replacement organization up front, so a factory
        // failure (e.g. a slice rounding to zero bytes) aborts the
        // decision with no state mutated.
        let Some(donor_orgs) = tenants[donor].build_orgs(donor_cap) else {
            return;
        };
        let Some(recipient_orgs) = tenants[recipient].build_orgs(recipient_cap) else {
            return;
        };
        let (rd, dd) = tenants[donor].cache.replace_orgs(donor_orgs);
        let (rr, dr) = tenants[recipient].cache.replace_orgs(recipient_orgs);
        ast.budgets[donor] = donor_cap;
        ast.budgets[recipient] = recipient_cap;
        let capacities = ast.budgets.clone();
        ast.decisions.push(ArbiterDecision {
            review: epoch,
            donor: TenantId(donor as u32),
            recipient: TenantId(recipient as u32),
            bytes_moved: step,
            capacities,
            blocks_reinserted: rd + rr,
            blocks_dropped: dd + dr,
        });
    }
}

fn arg_extreme(values: &[f64], better: impl Fn(f64, f64) -> bool) -> usize {
    let mut best = 0;
    for (i, &v) in values.iter().enumerate().skip(1) {
        if better(v, values[best]) {
            best = i;
        }
    }
    best
}

/// The multi-tenant serving handle. Cheap to clone (all clones share
/// one cache); hand each serving thread its own clone, or a per-tenant
/// [`TenantSession`] from [`ConcurrentSession::tenant`].
#[derive(Debug, Clone)]
pub struct ConcurrentSession {
    inner: Arc<ConcurrentCache>,
}

impl ConcurrentSession {
    /// Builds the shared cache: every tenant's budget is split over
    /// `shard_count` shards with [`shard_capacities`] and routed by the
    /// same jump hash as a solo [`ShardedCache`], which is what makes
    /// per-tenant streams solo-identical. Pass an [`ArbiterConfig`] to
    /// enable Memshare-style re-partitioning.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::ZeroCapacity`] for an empty tenant list or
    /// zero shards, and propagates factory errors (e.g. a tenant budget
    /// whose per-shard slice rounds to zero bytes).
    pub fn new(
        tenants: Vec<TenantConfig>,
        shard_count: u32,
        arbiter: Option<ArbiterConfig>,
    ) -> Result<ConcurrentSession, CacheError> {
        Ok(ConcurrentSession {
            inner: Arc::new(ConcurrentCache::build(tenants, shard_count, arbiter)?),
        })
    }

    /// Number of tenants.
    #[must_use]
    pub fn tenant_count(&self) -> usize {
        self.inner.tenants.len()
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.inner.shard_count
    }

    /// A per-tenant [`CacheSession`] handle sharing this cache; give
    /// each serving thread the handle for its tenant.
    ///
    /// # Panics
    ///
    /// Panics if `tenant` is out of range.
    #[must_use]
    pub fn tenant(&self, tenant: TenantId) -> TenantSession {
        assert!(
            (tenant.0 as usize) < self.tenant_count(),
            "unknown {tenant}"
        );
        TenantSession {
            session: self.clone(),
            tenant,
        }
    }

    /// The tenant-tagged insert path: looks `req.id` up in `tenant`'s
    /// lanes and on a miss inserts it, streaming the settled events into
    /// `sink`. Identical semantics to
    /// [`CacheSession::access_or_insert`] on that tenant's solo cache.
    ///
    /// # Errors
    ///
    /// Propagates the organization's validation errors; the access is
    /// recorded either way.
    ///
    /// # Panics
    ///
    /// Panics if `tenant` is out of range.
    pub fn insert_request(
        &self,
        tenant: TenantId,
        req: InsertRequest,
        sink: &mut dyn EventSink,
    ) -> Result<AccessOutcome, CacheError> {
        let outcome = self
            .inner
            .lock_tenant(tenant)
            .cache
            .access_or_insert(req, sink);
        self.inner.note_access();
        outcome
    }

    /// Looks up `id` for `tenant` without inserting.
    ///
    /// # Panics
    ///
    /// Panics if `tenant` is out of range.
    pub fn access(&self, tenant: TenantId, id: SuperblockId) -> AccessResult {
        let result = self.inner.lock_tenant(tenant).cache.access(id);
        self.inner.note_access();
        result
    }

    /// Chains `from → to` in `tenant`'s link graphs.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::NotResident`] if either endpoint is not
    /// resident for this tenant.
    ///
    /// # Panics
    ///
    /// Panics if `tenant` is out of range.
    pub fn link(
        &self,
        tenant: TenantId,
        from: SuperblockId,
        to: SuperblockId,
    ) -> Result<bool, CacheError> {
        self.inner.lock_tenant(tenant).cache.link(from, to)
    }

    /// Flushes every lane of `tenant`, in shard-index order.
    ///
    /// # Panics
    ///
    /// Panics if `tenant` is out of range.
    pub fn flush(&self, tenant: TenantId, sink: &mut dyn EventSink) -> Option<InsertSummary> {
        self.inner.lock_tenant(tenant).cache.flush(sink)
    }

    /// `tenant`'s aggregated statistics (its lanes plus its cross-shard
    /// extras) — exactly what the tenant's solo sharded cache would
    /// report.
    ///
    /// # Panics
    ///
    /// Panics if `tenant` is out of range.
    #[must_use]
    pub fn tenant_stats(&self, tenant: TenantId) -> CacheStats {
        self.inner.lock_tenant(tenant).cache.stats_snapshot()
    }

    /// `tenant`'s current total capacity (moves when the arbiter
    /// re-partitions).
    ///
    /// # Panics
    ///
    /// Panics if `tenant` is out of range.
    #[must_use]
    pub fn tenant_capacity(&self, tenant: TenantId) -> u64 {
        self.inner.lock_tenant(tenant).cache.capacity()
    }

    /// Every re-partition the arbiter has made so far, in decision
    /// order. Empty when the arbiter is disabled.
    #[must_use]
    pub fn decisions(&self) -> Vec<ArbiterDecision> {
        self.inner.decisions()
    }
}

/// One tenant's [`CacheSession`] view of a shared [`ConcurrentSession`]:
/// the handle `cce_sim` drives per tenant, indistinguishable from that
/// tenant's solo sharded cache. Every call takes the tenant's lock once
/// and delegates to its [`ShardedCache`]; a
/// [`CacheSession::transition`] that completes a review epoch re-takes
/// it once more, for the chain after the review. Without an arbiter,
/// [`CacheSession::hold`] lends the [`ShardedCache`] under one lock for
/// a whole run, so a replay pays for the lock once per fed slice.
#[derive(Debug, Clone)]
pub struct TenantSession {
    session: ConcurrentSession,
    tenant: TenantId,
}

impl TenantSession {
    /// Which tenant this handle serves.
    #[must_use]
    pub fn tenant_id(&self) -> TenantId {
        self.tenant
    }

    /// The underlying shared session.
    #[must_use]
    pub fn session(&self) -> &ConcurrentSession {
        &self.session
    }

    fn lock(&self) -> MutexGuard<'_, Tenant> {
        self.session.inner.lock_tenant(self.tenant)
    }
}

impl CacheSession for TenantSession {
    fn access(&mut self, id: SuperblockId) -> AccessResult {
        self.session.access(self.tenant, id)
    }

    fn access_or_insert(
        &mut self,
        req: InsertRequest,
        sink: &mut dyn EventSink,
    ) -> Result<AccessOutcome, CacheError> {
        self.session.insert_request(self.tenant, req, sink)
    }

    /// Takes the tenant lock once. When this access completes a review
    /// epoch, the review runs between the insert and the chain, exactly
    /// as it would after [`CacheSession::access_or_insert`]: the lock is
    /// dropped for the review and re-taken for the chain.
    fn transition(
        &mut self,
        id: SuperblockId,
        size: u32,
        from: Option<SuperblockId>,
        chain: bool,
        sink: &mut dyn EventSink,
    ) -> Result<AccessOutcome, CacheError> {
        let inner = &self.session.inner;
        let mut tenant = inner.lock_tenant(self.tenant);
        let Some(epoch) = inner.count_access() else {
            return tenant.cache.transition(id, size, from, chain, sink);
        };
        let outcome = tenant.cache.transition(id, size, from, false, sink);
        drop(tenant);
        inner.review(epoch);
        if let (Ok(_), true, Some(from)) = (&outcome, chain, from) {
            // `NotResident` means the review dropped an end: no chain.
            let _ = inner.lock_tenant(self.tenant).cache.link(from, id);
        }
        outcome
    }

    fn link(&mut self, from: SuperblockId, to: SuperblockId) -> Result<bool, CacheError> {
        self.session.link(self.tenant, from, to)
    }

    /// Lends the tenant's cache under one lock, unless an arbiter must
    /// be able to review between events: with no arbiter nothing counts
    /// accesses, so a held run is [`CacheSession::transition`] minus
    /// the lock traffic.
    fn hold(&mut self, run: &mut dyn FnMut(&mut ShardedCache)) -> bool {
        if self.session.inner.arbiter.is_some() {
            return false;
        }
        run(&mut self.lock().cache);
        true
    }

    fn flush(&mut self, sink: &mut dyn EventSink) -> Option<InsertSummary> {
        self.session.flush(self.tenant, sink)
    }

    fn is_resident(&self, id: SuperblockId) -> bool {
        self.lock().cache.is_resident(id)
    }

    fn contains_link(&self, from: SuperblockId, to: SuperblockId) -> bool {
        self.lock().cache.contains_link(from, to)
    }

    fn capacity(&self) -> u64 {
        self.lock().cache.capacity()
    }

    fn used(&self) -> u64 {
        self.lock().cache.used()
    }

    fn resident_count(&self) -> usize {
        self.lock().cache.resident_count()
    }

    fn granularity(&self) -> Granularity {
        self.lock().cache.granularity()
    }

    fn stats_snapshot(&self) -> CacheStats {
        self.lock().cache.stats_snapshot()
    }

    fn link_census(&self) -> (u64, u64) {
        self.lock().cache.link_census()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::NullSink;
    use crate::shard::jump_hash;
    use crate::testutil::assert_sessions_equivalent;

    fn sb(n: u64) -> SuperblockId {
        SuperblockId(n)
    }

    fn session(
        tenants: usize,
        capacity: u64,
        shards: u32,
        arbiter: Option<ArbiterConfig>,
    ) -> ConcurrentSession {
        let configs = (0..tenants)
            .map(|_| TenantConfig::with_granularity(Granularity::units(2), capacity))
            .collect();
        ConcurrentSession::new(configs, shards, arbiter).unwrap()
    }

    #[test]
    fn one_tenant_matches_a_solo_sharded_cache() {
        for shards in [1u32, 2, 4] {
            let concurrent = session(1, 4096, shards, None);
            let mut tenant = concurrent.tenant(TenantId(0));
            let mut solo =
                ShardedCache::with_granularity(Granularity::units(2), 4096, shards).unwrap();
            assert_sessions_equivalent(&mut tenant, &mut solo, 400);
        }
    }

    #[test]
    fn tenants_are_fully_isolated() {
        let s = session(2, 2048, 2, None);
        let a = TenantId(0);
        let b = TenantId(1);
        s.insert_request(a, InsertRequest::new(sb(1), 64), &mut NullSink)
            .unwrap();
        assert!(s.tenant(a).is_resident(sb(1)));
        assert!(!s.tenant(b).is_resident(sb(1)), "tenants must not share");
        let stats_b = s.tenant_stats(b);
        assert_eq!(stats_b.accesses, 0, "tenant b saw none of a's traffic");
        s.insert_request(b, InsertRequest::new(sb(1), 32), &mut NullSink)
            .unwrap();
        // Same id, different tenants, different sizes: both resident.
        assert_eq!(s.tenant(a).used(), 64);
        assert_eq!(s.tenant(b).used(), 32);
    }

    #[test]
    fn cross_shard_links_stay_per_tenant() {
        let s = session(2, 2048, 2, None);
        let a = sb(0);
        let shard_of = |id: SuperblockId| jump_hash(id.0, 2);
        let b = (1..64)
            .map(sb)
            .find(|&b| shard_of(b) != shard_of(a))
            .unwrap();
        for t in [TenantId(0), TenantId(1)] {
            s.insert_request(t, InsertRequest::new(a, 64), &mut NullSink)
                .unwrap();
            s.insert_request(t, InsertRequest::new(b, 64), &mut NullSink)
                .unwrap();
        }
        assert!(s.link(TenantId(0), a, b).unwrap());
        assert!(s.tenant(TenantId(0)).contains_link(a, b));
        assert!(!s.tenant(TenantId(1)).contains_link(a, b));
        assert_eq!(s.tenant_stats(TenantId(0)).links_created, 1);
        assert_eq!(s.tenant_stats(TenantId(1)).links_created, 0);
    }

    #[test]
    fn arbiter_moves_capacity_toward_the_needier_tenant() {
        let arbiter = ArbiterConfig {
            review_period: 64,
            transfer_divisor: 4,
            floor_bytes: 256,
            ..ArbiterConfig::default()
        };
        let s = session(2, 2048, 2, Some(arbiter));
        let hot = TenantId(0);
        let cold = TenantId(1);
        // Tenant 0 cycles a working set far beyond its capacity (every
        // revisit is a capacity miss = a ghost hit); tenant 1 re-hits
        // one small block.
        for round in 0..40u64 {
            for i in 0..32u64 {
                s.insert_request(hot, InsertRequest::new(sb(i), 128), &mut NullSink)
                    .unwrap();
                let _ = round;
            }
            s.insert_request(cold, InsertRequest::new(sb(1000), 64), &mut NullSink)
                .unwrap();
        }
        let decisions = s.decisions();
        assert!(!decisions.is_empty(), "the arbiter must have acted");
        for d in &decisions {
            assert_eq!(d.donor, cold);
            assert_eq!(d.recipient, hot);
            assert!(d.bytes_moved > 0);
            assert_eq!(
                d.capacities.iter().sum::<u64>(),
                4096,
                "re-partitioning conserves the total budget"
            );
            assert!(d.capacities.iter().all(|&c| c >= arbiter.floor_bytes));
        }
        assert!(s.tenant_capacity(hot) > 2048);
        // Measured lane capacities may sit a unit-rounding below the
        // assigned budgets (4 lanes of 2-unit FIFOs: at most 4 bytes).
        let total = s.tenant_capacity(hot) + s.tenant_capacity(cold);
        assert!((4092..=4096).contains(&total), "total drifted to {total}");
    }

    #[test]
    fn arbiter_rebuild_preserves_miss_classification() {
        let arbiter = ArbiterConfig {
            review_period: 32,
            transfer_divisor: 4,
            floor_bytes: 256,
            ..ArbiterConfig::default()
        };
        let s = session(2, 1024, 1, Some(arbiter));
        let hot = TenantId(0);
        for round in 0..20u64 {
            for i in 0..24u64 {
                s.insert_request(hot, InsertRequest::new(sb(i), 96), &mut NullSink)
                    .unwrap();
                let _ = round;
            }
        }
        assert!(!s.decisions().is_empty());
        // Every id was seen before, so even across rebuilds a re-request
        // must classify as a capacity miss, never cold.
        let stats = s.tenant_stats(hot);
        assert_eq!(stats.cold_misses, 24, "rebuilds must not reset `seen`");
    }

    #[test]
    fn threaded_tenants_match_their_solo_runs() {
        // A miniature of the conformance suite: 4 tenants, 4 threads,
        // each thread churning its own tenant; per-tenant statistics
        // must equal the tenant's solo single-threaded run.
        let shards = 2u32;
        let capacity = 2048u64;
        let concurrent = session(4, capacity, shards, None);
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let mut tenant = concurrent.tenant(TenantId(t));
                scope.spawn(move || churn(&mut tenant, t));
            }
        });
        for t in 0..4u32 {
            let mut solo =
                ShardedCache::with_granularity(Granularity::units(2), capacity, shards).unwrap();
            churn(&mut solo, t);
            assert_eq!(
                concurrent.tenant_stats(TenantId(t)),
                solo.stats_snapshot(),
                "tenant {t} diverged from its solo run"
            );
        }
    }

    /// Deterministic per-tenant workload, seeded by tenant index.
    fn churn<S: CacheSession>(session: &mut S, seed: u32) {
        let mut rng = 0x9e37_79b9_7f4a_7c15u64 ^ (u64::from(seed) << 17);
        let mut last: Option<SuperblockId> = None;
        for _ in 0..600 {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let id = sb(rng % 41);
            let size = 32 + (rng >> 8) % 97;
            let out = session
                .access_or_insert_quiet(InsertRequest::new(id, size as u32).with_hint(last))
                .unwrap();
            if out.is_miss() {
                if let Some(from) = last {
                    if session.is_resident(from) && session.is_resident(id) && from != id {
                        session.link(from, id).unwrap();
                    }
                }
            }
            last = Some(id);
        }
    }

    #[test]
    fn concurrent_session_is_send_sync_and_clone() {
        fn assert_send_sync<T: Send + Sync + Clone>() {}
        assert_send_sync::<ConcurrentSession>();
        assert_send_sync::<TenantSession>();
    }

    #[test]
    fn construction_rejects_degenerate_geometries() {
        assert!(matches!(
            ConcurrentSession::new(Vec::new(), 2, None),
            Err(CacheError::ZeroCapacity)
        ));
        let one = |cap| vec![TenantConfig::with_granularity(Granularity::Flush, cap)];
        assert!(matches!(
            ConcurrentSession::new(one(1024), 0, None),
            Err(CacheError::ZeroCapacity)
        ));
        // A 3-byte budget over 8 shards rounds some slices to zero.
        assert!(ConcurrentSession::new(one(3), 8, None).is_err());
    }
}
