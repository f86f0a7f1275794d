//! The code-cache access trace — our analogue of DynamoRIO's verbose log.
//!
//! The paper drove its cache simulator from saved DynamoRIO logs so that
//! experiments were repeatable across policies (§4.1). A [`TraceLog`] is
//! the same idea: the per-superblock registry (id, head PC, translated
//! size) plus the time-ordered sequence of superblock entries. Each entry
//! records whether control arrived *directly* from another superblock's
//! exit — the chainable transitions from which each cache configuration
//! decides, at replay time, which links actually get patched (a link only
//! forms when both endpoints are simultaneously resident, which differs
//! across policies).
//!
//! Logs serialize to JSON (via [`cce_util::Json`]) for save/replay parity
//! with the paper's methodology.

use cce_core::SuperblockId;
use cce_tinyvm::program::Pc;
use cce_util::json::{Json, JsonError};
use std::collections::BTreeSet;
use std::fmt;
use std::io::{Read, Write};

/// Registry entry for one superblock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuperblockInfo {
    /// Stable identity.
    pub id: SuperblockId,
    /// Guest address of the head.
    pub head_pc: Pc,
    /// Translated size in bytes (the cache entry size).
    pub size: u32,
    /// Guest basic blocks in the path.
    pub guest_blocks: u32,
    /// Exit stubs (upper bound on chainable out-links).
    pub exits: u32,
}

/// One event in the access trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// Control entered superblock `id`.
    Access {
        /// The superblock entered.
        id: SuperblockId,
        /// `Some(s)` if the entry came straight off superblock `s`'s exit
        /// (a chainable transition); `None` if control went through the
        /// interpreter/dispatcher for unrelated work first.
        direct_from: Option<SuperblockId>,
    },
}

/// A complete, replayable access trace.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceLog {
    /// Human-readable workload name.
    pub name: String,
    /// Superblock registry in formation order.
    pub superblocks: Vec<SuperblockInfo>,
    /// Time-ordered access events.
    pub events: Vec<TraceEvent>,
}

/// Aggregate statistics of a trace (inputs to Table 1 and Figures 3, 4
/// and 12).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSummary {
    /// Number of distinct superblocks (Table 1's middle column).
    pub superblock_count: usize,
    /// Total accesses.
    pub accesses: u64,
    /// Sum of translated sizes — the unbounded cache size `maxCache`.
    pub total_code_bytes: u64,
    /// Median translated size (Figure 4).
    pub median_size: u32,
    /// Mean translated size.
    pub mean_size: f64,
    /// Mean distinct outbound chainable targets per superblock (Figure 12).
    pub mean_out_degree: f64,
    /// Fraction of accesses that were direct (chainable) transitions.
    pub direct_fraction: f64,
}

/// A prebuilt id → registry-position map, replacing per-lookup linear
/// scans of the superblock registry.
///
/// Every in-repo trace producer (the workload models, the mixer)
/// assigns ids `0..n` in formation order, so the common case is a dense
/// table indexed by `id - min_id`. Registries whose id space
/// is sparse (hand-edited logs, merged id ranges) fall back to a sorted
/// array with binary-search lookups. Both representations are
/// deterministic; on duplicate ids the *first* registry entry wins,
/// matching the historical `iter().find()` semantics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuperblockIndex {
    repr: IndexRepr,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum IndexRepr {
    /// `slots[id - base]` is the registry position, `usize::MAX` = absent.
    Dense { base: u64, slots: Vec<usize> },
    /// `(id, position)` sorted by id, then position (first wins).
    Sorted(Vec<(u64, usize)>),
}

/// A sparse id space wastes at most this many empty dense slots before
/// the index falls back to binary search.
const DENSE_SLACK: u64 = 1024;

impl SuperblockIndex {
    /// Builds the index with one scan of the registry.
    #[must_use]
    pub fn build(superblocks: &[SuperblockInfo]) -> SuperblockIndex {
        if superblocks.is_empty() {
            return SuperblockIndex {
                repr: IndexRepr::Sorted(Vec::new()),
            };
        }
        let mut min = u64::MAX;
        let mut max = 0u64;
        for s in superblocks {
            min = min.min(s.id.0);
            max = max.max(s.id.0);
        }
        let span = max - min + 1;
        let budget = (superblocks.len() as u64).saturating_mul(2) + DENSE_SLACK;
        let repr = if span <= budget {
            let mut slots = vec![usize::MAX; span as usize];
            for (pos, s) in superblocks.iter().enumerate() {
                let slot = &mut slots[(s.id.0 - min) as usize];
                if *slot == usize::MAX {
                    *slot = pos;
                }
            }
            IndexRepr::Dense { base: min, slots }
        } else {
            let mut pairs: Vec<(u64, usize)> = superblocks
                .iter()
                .enumerate()
                .map(|(pos, s)| (s.id.0, pos))
                .collect();
            pairs.sort_unstable();
            IndexRepr::Sorted(pairs)
        };
        SuperblockIndex { repr }
    }

    /// The registry position of `id`, if registered.
    #[must_use]
    pub fn position(&self, id: SuperblockId) -> Option<usize> {
        match &self.repr {
            IndexRepr::Dense { base, slots } => {
                let slot = *slots.get(usize::try_from(id.0.checked_sub(*base)?).ok()?)?;
                (slot != usize::MAX).then_some(slot)
            }
            IndexRepr::Sorted(pairs) => {
                let at = pairs.partition_point(|&(pid, _)| pid < id.0);
                match pairs.get(at) {
                    Some(&(pid, pos)) if pid == id.0 => Some(pos),
                    _ => None,
                }
            }
        }
    }
}

/// Streaming accumulator for [`TraceSummary`]: feed events in trace
/// order (one pass, any chunking) and [`finish`](TraceSummaryBuilder::finish).
///
/// Out-degree state is one small sorted target list per *registered*
/// superblock — O(distinct edges), which the exit-stub bound keeps tiny —
/// instead of the per-event `BTreeMap`/`BTreeSet` churn the old
/// whole-trace pass paid. Events naming unregistered ids (malformed but
/// historically tolerated by `summary`) spill into a `BTreeSet` so the
/// statistics stay identical to the old implementation.
#[derive(Debug)]
pub struct TraceSummaryBuilder {
    index: SuperblockIndex,
    superblock_count: usize,
    /// Distinct chain targets per registered source, each list sorted.
    out_targets: Vec<Vec<u64>>,
    /// Distinct `(from, to)` pairs with an unregistered source.
    spill: BTreeSet<(u64, u64)>,
    events: u64,
    direct: u64,
}

impl TraceSummaryBuilder {
    /// Starts a summary over `superblocks` (the trace's registry).
    #[must_use]
    pub fn new(superblocks: &[SuperblockInfo]) -> TraceSummaryBuilder {
        TraceSummaryBuilder {
            index: SuperblockIndex::build(superblocks),
            superblock_count: superblocks.len(),
            out_targets: vec![Vec::new(); superblocks.len()],
            spill: BTreeSet::new(),
            events: 0,
            direct: 0,
        }
    }

    /// Folds one access event into the statistics.
    pub fn record(&mut self, ev: TraceEvent) {
        let TraceEvent::Access { id, direct_from } = ev;
        self.events += 1;
        if let Some(from) = direct_from {
            self.direct += 1;
            match self.index.position(from) {
                Some(pos) => {
                    let targets = &mut self.out_targets[pos];
                    if let Err(at) = targets.binary_search(&id.0) {
                        targets.insert(at, id.0);
                    }
                }
                None => {
                    self.spill.insert((from.0, id.0));
                }
            }
        }
    }

    /// Folds a whole chunk of events.
    pub fn record_chunk(&mut self, events: &[TraceEvent]) {
        for &ev in events {
            self.record(ev);
        }
    }

    /// Completes the summary; `superblocks` must be the registry the
    /// builder was created with.
    #[must_use]
    pub fn finish(self, superblocks: &[SuperblockInfo]) -> TraceSummary {
        let mut sizes: Vec<u32> = superblocks.iter().map(|s| s.size).collect();
        sizes.sort_unstable();
        let median_size = if sizes.is_empty() {
            0
        } else {
            sizes[sizes.len() / 2]
        };
        let total: u64 = sizes.iter().map(|&s| u64::from(s)).sum();
        let mean_size = if sizes.is_empty() {
            0.0
        } else {
            total as f64 / sizes.len() as f64
        };
        let total_out: usize =
            self.out_targets.iter().map(Vec::len).sum::<usize>() + self.spill.len();
        let mean_out_degree = if self.superblock_count == 0 {
            0.0
        } else {
            total_out as f64 / self.superblock_count as f64
        };
        let direct_fraction = if self.events == 0 {
            0.0
        } else {
            self.direct as f64 / self.events as f64
        };
        TraceSummary {
            superblock_count: self.superblock_count,
            accesses: self.events,
            total_code_bytes: total,
            median_size,
            mean_size,
            mean_out_degree,
            direct_fraction,
        }
    }
}

/// Failure while saving or loading a [`TraceLog`] — JSON or binary.
#[derive(Debug)]
pub enum TraceLogError {
    /// The underlying reader/writer failed.
    Io(std::io::Error),
    /// The input was not valid JSON.
    Json(JsonError),
    /// The JSON parsed but did not describe a trace log; names the first
    /// missing or mistyped field.
    Malformed(&'static str),
    /// A binary input did not start with the trace magic.
    BadMagic,
    /// A binary input declared a format version this build cannot read.
    UnsupportedVersion(u16),
    /// A binary input was structurally damaged (truncated frame, CRC
    /// mismatch, malformed varint); names what failed to decode.
    Corrupt(&'static str),
}

impl fmt::Display for TraceLogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceLogError::Io(e) => write!(f, "trace log i/o error: {e}"),
            TraceLogError::Json(e) => write!(f, "trace log: {e}"),
            TraceLogError::Malformed(what) => {
                write!(f, "trace log structure error at field '{what}'")
            }
            TraceLogError::BadMagic => {
                write!(f, "not a binary trace log (bad magic)")
            }
            TraceLogError::UnsupportedVersion(v) => {
                write!(f, "binary trace log version {v} is not supported")
            }
            TraceLogError::Corrupt(what) => {
                write!(f, "binary trace log corrupt: {what}")
            }
        }
    }
}

impl std::error::Error for TraceLogError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceLogError::Io(e) => Some(e),
            TraceLogError::Json(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TraceLogError {
    fn from(e: std::io::Error) -> TraceLogError {
        TraceLogError::Io(e)
    }
}

impl From<JsonError> for TraceLogError {
    fn from(e: JsonError) -> TraceLogError {
        TraceLogError::Json(e)
    }
}

fn field<'a>(v: &'a Json, key: &'static str) -> Result<&'a Json, TraceLogError> {
    v.get(key).ok_or(TraceLogError::Malformed(key))
}

fn field_u64(v: &Json, key: &'static str) -> Result<u64, TraceLogError> {
    field(v, key)?.as_u64().ok_or(TraceLogError::Malformed(key))
}

fn field_u32(v: &Json, key: &'static str) -> Result<u32, TraceLogError> {
    u32::try_from(field_u64(v, key)?).map_err(|_| TraceLogError::Malformed(key))
}

impl SuperblockInfo {
    fn to_json(self) -> Json {
        Json::obj(vec![
            ("id", Json::from(self.id.0)),
            ("head_pc", Json::from(self.head_pc.0)),
            ("size", Json::from(self.size)),
            ("guest_blocks", Json::from(self.guest_blocks)),
            ("exits", Json::from(self.exits)),
        ])
    }

    fn from_json(v: &Json) -> Result<SuperblockInfo, TraceLogError> {
        Ok(SuperblockInfo {
            id: SuperblockId(field_u64(v, "id")?),
            head_pc: Pc(field_u64(v, "head_pc")?),
            size: field_u32(v, "size")?,
            guest_blocks: field_u32(v, "guest_blocks")?,
            exits: field_u32(v, "exits")?,
        })
    }
}

impl TraceEvent {
    fn to_json(self) -> Json {
        let TraceEvent::Access { id, direct_from } = self;
        Json::obj(vec![
            ("id", Json::from(id.0)),
            ("from", direct_from.map_or(Json::Null, |s| Json::from(s.0))),
        ])
    }

    fn from_json(v: &Json) -> Result<TraceEvent, TraceLogError> {
        let from = field(v, "from")?;
        let direct_from = if from.is_null() {
            None
        } else {
            Some(SuperblockId(
                from.as_u64().ok_or(TraceLogError::Malformed("from"))?,
            ))
        };
        Ok(TraceEvent::Access {
            id: SuperblockId(field_u64(v, "id")?),
            direct_from,
        })
    }
}

impl TraceLog {
    /// Creates an empty log with a name.
    #[must_use]
    pub fn new(name: &str) -> TraceLog {
        TraceLog {
            name: name.to_owned(),
            superblocks: Vec::new(),
            events: Vec::new(),
        }
    }

    /// Registers a formed superblock.
    pub fn record_superblock(&mut self, info: SuperblockInfo) {
        self.superblocks.push(info);
    }

    /// Appends an access event.
    pub fn record_access(&mut self, id: SuperblockId, direct_from: Option<SuperblockId>) {
        self.events.push(TraceEvent::Access { id, direct_from });
    }

    /// Looks up a superblock's registry entry.
    ///
    /// Every in-repo producer assigns ids `0..n` in formation order, so
    /// the registry is usually its own dense index and this is O(1); a
    /// registry that breaks that convention degrades to a scan. Loops
    /// that look up many ids should build a [`SuperblockIndex`] once
    /// (see [`TraceLog::index`]) instead.
    #[must_use]
    pub fn superblock(&self, id: SuperblockId) -> Option<&SuperblockInfo> {
        if let Some(s) = usize::try_from(id.0)
            .ok()
            .and_then(|at| self.superblocks.get(at))
        {
            if s.id == id {
                return Some(s);
            }
        }
        self.superblocks.iter().find(|s| s.id == id)
    }

    /// Builds the id → registry-position index for repeated lookups
    /// (replay, summaries).
    #[must_use]
    pub fn index(&self) -> SuperblockIndex {
        SuperblockIndex::build(&self.superblocks)
    }

    /// The unbounded cache size: total translated bytes of all
    /// superblocks (the paper's `maxCache`).
    #[must_use]
    pub fn max_cache_bytes(&self) -> u64 {
        self.superblocks.iter().map(|s| u64::from(s.size)).sum()
    }

    /// Computes the aggregate statistics in one pass over the events
    /// (see [`TraceSummaryBuilder`] for the streaming form).
    #[must_use]
    pub fn summary(&self) -> TraceSummary {
        let mut b = TraceSummaryBuilder::new(&self.superblocks);
        b.record_chunk(&self.events);
        b.finish(&self.superblocks)
    }

    /// The JSON representation written by [`TraceLog::save`].
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::from(self.name.as_str())),
            (
                "superblocks",
                Json::Arr(self.superblocks.iter().map(|s| s.to_json()).collect()),
            ),
            (
                "events",
                Json::Arr(self.events.iter().map(|e| e.to_json()).collect()),
            ),
        ])
    }

    /// Rebuilds a log from the representation produced by
    /// [`TraceLog::to_json`].
    ///
    /// # Errors
    ///
    /// Returns [`TraceLogError::Malformed`] naming the first missing or
    /// mistyped field.
    pub fn from_json(v: &Json) -> Result<TraceLog, TraceLogError> {
        let name = field(v, "name")?
            .as_str()
            .ok_or(TraceLogError::Malformed("name"))?
            .to_owned();
        let superblocks = field(v, "superblocks")?
            .as_arr()
            .ok_or(TraceLogError::Malformed("superblocks"))?
            .iter()
            .map(SuperblockInfo::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let events = field(v, "events")?
            .as_arr()
            .ok_or(TraceLogError::Malformed("events"))?
            .iter()
            .map(TraceEvent::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(TraceLog {
            name,
            superblocks,
            events,
        })
    }

    /// Serializes the log as JSON to `writer`.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the writer.
    pub fn save<W: Write>(&self, mut writer: W) -> Result<(), TraceLogError> {
        writer.write_all(self.to_json().to_string_compact().as_bytes())?;
        Ok(())
    }

    /// Deserializes a log previously written by [`TraceLog::save`].
    ///
    /// # Errors
    ///
    /// Returns any I/O, JSON or structural error.
    pub fn load<R: Read>(mut reader: R) -> Result<TraceLog, TraceLogError> {
        let mut text = String::new();
        reader.read_to_string(&mut text)?;
        TraceLog::from_json(&Json::parse(&text)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sb(n: u64) -> SuperblockId {
        SuperblockId(n)
    }

    fn sample() -> TraceLog {
        let mut log = TraceLog::new("sample");
        for (i, size) in [(0u64, 100u32), (1, 200), (2, 300)] {
            log.record_superblock(SuperblockInfo {
                id: sb(i),
                head_pc: Pc(0x1000 + i * 64),
                size,
                guest_blocks: 3,
                exits: 2,
            });
        }
        log.record_access(sb(0), None);
        log.record_access(sb(1), Some(sb(0)));
        log.record_access(sb(2), Some(sb(1)));
        log.record_access(sb(0), None);
        log.record_access(sb(1), Some(sb(0)));
        log
    }

    #[test]
    fn summary_statistics() {
        let s = sample().summary();
        assert_eq!(s.superblock_count, 3);
        assert_eq!(s.accesses, 5);
        assert_eq!(s.total_code_bytes, 600);
        assert_eq!(s.median_size, 200);
        assert!((s.mean_size - 200.0).abs() < 1e-9);
        // Distinct out edges: 0→1, 1→2 ⇒ 2 links over 3 superblocks.
        assert!((s.mean_out_degree - 2.0 / 3.0).abs() < 1e-9);
        assert!((s.direct_fraction - 0.6).abs() < 1e-9);
    }

    #[test]
    fn max_cache_is_total_code_bytes() {
        let log = sample();
        assert_eq!(log.max_cache_bytes(), 600);
    }

    #[test]
    fn duplicate_direct_transitions_count_once_in_out_degree() {
        let mut log = sample();
        log.record_access(sb(1), Some(sb(0))); // repeat 0→1
        let s = log.summary();
        assert!((s.mean_out_degree - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn save_load_roundtrip() {
        let log = sample();
        let mut buf = Vec::new();
        log.save(&mut buf).unwrap();
        let back = TraceLog::load(buf.as_slice()).unwrap();
        assert_eq!(log, back);
    }

    #[test]
    fn saved_form_is_deterministic() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        sample().save(&mut a).unwrap();
        sample().save(&mut b).unwrap();
        assert_eq!(a, b, "replay files must be byte-stable");
    }

    #[test]
    fn load_rejects_malformed_documents() {
        assert!(matches!(
            TraceLog::load("not json".as_bytes()),
            Err(TraceLogError::Json(_))
        ));
        assert!(matches!(
            TraceLog::load("{\"name\":\"x\"}".as_bytes()),
            Err(TraceLogError::Malformed("superblocks"))
        ));
        let missing_field = "{\"name\":\"x\",\"superblocks\":[{\"id\":1}],\"events\":[]}";
        assert!(matches!(
            TraceLog::load(missing_field.as_bytes()),
            Err(TraceLogError::Malformed("head_pc"))
        ));
    }

    #[test]
    fn empty_log_summary_is_all_zero() {
        let s = TraceLog::new("empty").summary();
        assert_eq!(s.superblock_count, 0);
        assert_eq!(s.accesses, 0);
        assert_eq!(s.median_size, 0);
        assert_eq!(s.mean_out_degree, 0.0);
        assert_eq!(s.direct_fraction, 0.0);
    }

    #[test]
    fn superblock_lookup() {
        let log = sample();
        assert_eq!(log.superblock(sb(1)).unwrap().size, 200);
        assert!(log.superblock(sb(9)).is_none());
    }

    fn info(id: u64, size: u32) -> SuperblockInfo {
        SuperblockInfo {
            id: sb(id),
            head_pc: Pc(id * 16),
            size,
            guest_blocks: 1,
            exits: 1,
        }
    }

    #[test]
    fn superblock_lookup_survives_unordered_registries() {
        // Out of formation order and offset from zero: the dense fast
        // path misses and the scan fallback must still answer.
        let mut log = TraceLog::new("odd");
        for id in [5u64, 3, 9] {
            log.record_superblock(info(id, id as u32 * 10));
        }
        assert_eq!(log.superblock(sb(3)).unwrap().size, 30);
        assert_eq!(log.superblock(sb(9)).unwrap().size, 90);
        assert!(log.superblock(sb(0)).is_none());
    }

    #[test]
    fn index_dense_and_sparse_agree() {
        // Dense ids.
        let dense: Vec<_> = (0..50).map(|i| info(i, 10)).collect();
        let idx = SuperblockIndex::build(&dense);
        for (pos, s) in dense.iter().enumerate() {
            assert_eq!(idx.position(s.id), Some(pos));
        }
        assert_eq!(idx.position(sb(50)), None);

        // Sparse ids force the sorted fallback.
        let sparse: Vec<_> = (0..50).map(|i| info(i * 1_000_000, 10)).collect();
        let idx = SuperblockIndex::build(&sparse);
        for (pos, s) in sparse.iter().enumerate() {
            assert_eq!(idx.position(s.id), Some(pos));
        }
        assert_eq!(idx.position(sb(17)), None);
        assert_eq!(idx.position(sb(u64::MAX)), None);
    }

    #[test]
    fn index_first_entry_wins_on_duplicates() {
        let dup = vec![info(4, 1), info(4, 2), info(7, 3)];
        let idx = SuperblockIndex::build(&dup);
        assert_eq!(idx.position(sb(4)), Some(0), "first registration wins");

        let mut sparse = dup.clone();
        sparse.push(info(1 << 40, 4)); // force the sorted fallback
        let idx = SuperblockIndex::build(&sparse);
        assert_eq!(idx.position(sb(4)), Some(0), "first registration wins");
    }

    #[test]
    fn empty_index_answers_nothing() {
        let idx = SuperblockIndex::build(&[]);
        assert_eq!(idx.position(sb(0)), None);
    }

    #[test]
    fn builder_matches_whole_trace_summary_in_chunks() {
        let log = sample();
        for chunk in [1usize, 2, 5] {
            let mut b = TraceSummaryBuilder::new(&log.superblocks);
            for piece in log.events.chunks(chunk) {
                b.record_chunk(piece);
            }
            assert_eq!(b.finish(&log.superblocks), log.summary(), "chunk={chunk}");
        }
    }

    #[test]
    fn summary_tolerates_unregistered_chain_sources() {
        // Historical behaviour: edges from ids missing from the registry
        // still count toward the distinct-edge total.
        let mut log = sample();
        log.record_access(sb(2), Some(sb(77)));
        log.record_access(sb(2), Some(sb(77))); // duplicate edge
        let s = log.summary();
        // Edges: 0→1, 1→2, 77→2 ⇒ 3 over 3 superblocks.
        assert!((s.mean_out_degree - 1.0).abs() < 1e-9);
    }
}
