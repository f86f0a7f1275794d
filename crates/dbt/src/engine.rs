//! The dynamic-binary-translation engine.
//!
//! [`Engine`] runs a guest [`Program`] under observation and performs the
//! full DBT control loop of the paper's Figure 1: interpret cold code,
//! profile candidate heads, form superblocks when heads go hot, translate
//! and insert them into the [`CodeCache`], execute from the cache on hits,
//! regenerate on misses, and chain direct superblock→superblock
//! transitions. Along the way it emits the replayable [`TraceLog`] and
//! counts the dispatch events behind the paper's Table 2.
//!
//! Guest execution semantics always come from the interpreter; the engine
//! mirrors what a real translator's *cache state* would be. That is
//! exactly the paper's methodology — DynamoRIO executed the program while
//! a simulator replayed its cache behaviour — collapsed into one process.

use crate::dispatch::DispatchStats;
use crate::formation::{FormationConfig, Recorder};
use crate::profile::Profiler;
use crate::superblock::{count_exits, guest_bytes, Superblock};
use crate::trace_log::{SuperblockInfo, TraceLog};
use crate::translate::TranslationConfig;
use crate::DbtError;
use cce_core::{
    CacheError, CacheSession, CacheStats, CodeCache, Granularity, InsertRequest, NullSink,
    ShardedCache, SuperblockId,
};
use cce_tinyvm::interp::{ExecObserver, Interp, StopReason};
use cce_tinyvm::program::{BasicBlock, Pc, Program};
use std::collections::HashMap;

/// Capacity used when [`EngineConfig::cache_capacity`] is `None`
/// (effectively unbounded: 1 TiB).
pub const UNBOUNDED_CAPACITY: u64 = 1 << 40;

/// Configuration of the translation engine.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Workload name recorded in the trace log.
    pub name: String,
    /// Hotness threshold (executions before superblock formation).
    pub hot_threshold: u32,
    /// Trace-formation limits.
    pub formation: FormationConfig,
    /// Translated-size model.
    pub translation: TranslationConfig,
    /// Eviction granularity of the code cache.
    pub granularity: Granularity,
    /// Cache capacity in bytes; `None` lets the cache grow unbounded
    /// (how `maxCache` is measured in §4.2).
    pub cache_capacity: Option<u64>,
    /// Whether superblock chaining is enabled (Table 2 turns this off).
    pub chaining: bool,
    /// Capacity of the first-level *basic-block cache* (DynamoRIO's
    /// dual-cache architecture, §2.2): every executed basic block is
    /// cached once so later executions avoid interpretation. `None`
    /// disables the basic-block cache (single-cache configuration).
    pub bb_cache_capacity: Option<u64>,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            name: "dbt-run".to_owned(),
            hot_threshold: crate::profile::DEFAULT_HOT_THRESHOLD,
            formation: FormationConfig::default(),
            translation: TranslationConfig::default(),
            granularity: Granularity::Superblock,
            cache_capacity: None,
            chaining: true,
            bb_cache_capacity: None,
        }
    }
}

/// Aggregate results of an [`Engine::run`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Why guest execution stopped.
    pub stop: StopReason,
    /// Basic blocks entered by the interpreter.
    pub blocks_entered: u64,
    /// Guest instructions retired.
    pub guest_instructions: u64,
    /// Superblocks formed (distinct heads promoted).
    pub superblocks_formed: u64,
    /// Re-translations of evicted superblocks.
    pub regenerations: u64,
    /// Final code-cache statistics.
    pub cache_stats: CacheStats,
    /// Dispatch-path event counts.
    pub dispatch: DispatchStats,
    /// Total translated bytes over all formed superblocks (`maxCache`).
    pub max_cache_bytes: u64,
    /// Statistics of the basic-block cache, when one is configured.
    pub bb_cache_stats: Option<CacheStats>,
}

#[derive(Debug, Clone, Copy)]
struct ActivePath {
    id: SuperblockId,
    pos: usize,
}

/// The dynamic binary translator. See the module docs and
/// [crate-level example](crate).
///
/// Generic over the serving surface: the default `S = CodeCache` is the
/// single-cache engine; [`Engine::sharded`] runs the same control loop
/// over a [`ShardedCache`] through the identical [`CacheSession`] trait.
#[derive(Debug)]
pub struct Engine<'p, S: CacheSession = CodeCache> {
    program: &'p Program,
    config: EngineConfig,
    profiler: Profiler,
    cache: S,
    /// Head PC → superblock id, for every superblock ever formed.
    heads: HashMap<Pc, SuperblockId>,
    /// Superblock registry, indexed by `SuperblockId::0`.
    registry: Vec<Superblock>,
    trace: TraceLog,
    /// First-level basic-block cache (dual-cache configurations).
    bb_cache: Option<CodeCache>,
    recorder: Option<Recorder>,
    active: Option<ActivePath>,
    pending_from: Option<SuperblockId>,
    dispatch: DispatchStats,
    regenerations: u64,
}

impl<'p> Engine<'p> {
    /// Creates an engine for `program` over a single [`CodeCache`].
    ///
    /// # Errors
    ///
    /// Returns [`DbtError::Cache`] if the cache geometry is invalid, or
    /// [`DbtError::InvalidConfig`] for a zero hot threshold.
    pub fn new(program: &'p Program, config: EngineConfig) -> Result<Engine<'p>, DbtError> {
        let capacity = config.cache_capacity.unwrap_or(UNBOUNDED_CAPACITY);
        let cache = CodeCache::with_granularity(config.granularity, capacity)?;
        Engine::with_session(program, config, cache)
    }
}

impl<'p> Engine<'p, ShardedCache> {
    /// Creates an engine serving its superblocks from a
    /// [`ShardedCache`]: the configured capacity is split over
    /// `shard_count` consistent-hashed shards of the configured
    /// granularity.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Engine::new`].
    pub fn sharded(
        program: &'p Program,
        config: EngineConfig,
        shard_count: u32,
    ) -> Result<Engine<'p, ShardedCache>, DbtError> {
        let capacity = config.cache_capacity.unwrap_or(UNBOUNDED_CAPACITY);
        let cache = ShardedCache::with_granularity(config.granularity, capacity, shard_count)?;
        Engine::with_session(program, config, cache)
    }
}

impl<'p, S: CacheSession> Engine<'p, S> {
    /// Creates an engine over an arbitrary pre-built serving session
    /// (`config.granularity` / `config.cache_capacity` are ignored — the
    /// session brings its own geometry).
    ///
    /// # Errors
    ///
    /// Returns [`DbtError::Cache`] if the basic-block cache geometry is
    /// invalid, or [`DbtError::InvalidConfig`] for a zero hot threshold.
    pub fn with_session(
        program: &'p Program,
        config: EngineConfig,
        session: S,
    ) -> Result<Engine<'p, S>, DbtError> {
        if config.hot_threshold == 0 {
            return Err(DbtError::InvalidConfig("hot_threshold must be nonzero"));
        }
        // The basic-block cache evicts per block (a circular buffer), as
        // in DynamoRIO.
        let bb_cache = match config.bb_cache_capacity {
            Some(cap) => Some(CodeCache::with_granularity(Granularity::Superblock, cap)?),
            None => None,
        };
        let trace = TraceLog::new(&config.name);
        Ok(Engine {
            program,
            profiler: Profiler::new(config.hot_threshold),
            cache: session,
            heads: HashMap::new(),
            registry: Vec::new(),
            trace,
            bb_cache,
            recorder: None,
            active: None,
            pending_from: None,
            dispatch: DispatchStats::default(),
            regenerations: 0,
            config,
        })
    }

    /// Executes the guest program from its entry for at most `max_blocks`
    /// basic blocks, returning the run summary.
    pub fn run(&mut self, max_blocks: u64) -> RunSummary {
        let mut interp = Interp::new(self.program);
        let stop = interp.run_observed(max_blocks, self);
        // A recording in flight when the program ends is finalized so its
        // code is accounted for.
        if let Some(rec) = self.recorder.take() {
            self.finish_superblock(rec.into_path());
        }
        self.dispatch.guest_instructions = interp.instructions_retired();
        RunSummary {
            stop,
            blocks_entered: interp.blocks_entered(),
            guest_instructions: interp.instructions_retired(),
            superblocks_formed: self.registry.len() as u64,
            regenerations: self.regenerations,
            cache_stats: self.cache.stats_snapshot(),
            dispatch: self.dispatch,
            max_cache_bytes: self.trace.max_cache_bytes(),
            bb_cache_stats: self.bb_cache.as_ref().map(|c| *c.stats()),
        }
    }

    /// The serving session (inspect stats, residency, links).
    #[must_use]
    pub fn cache(&self) -> &S {
        &self.cache
    }

    /// All superblocks formed so far.
    #[must_use]
    pub fn superblocks(&self) -> &[Superblock] {
        &self.registry
    }

    /// The trace log accumulated so far.
    #[must_use]
    pub fn trace(&self) -> &TraceLog {
        &self.trace
    }

    /// Consumes the engine, yielding the trace log for replay.
    #[must_use]
    pub fn into_trace(self) -> TraceLog {
        self.trace
    }

    /// Finalizes a recorded path into a superblock: translate, register,
    /// insert, log.
    fn finish_superblock(&mut self, path: Vec<cce_tinyvm::program::BlockId>) {
        let head_pc = self.program.block_addr(path[0]);
        debug_assert!(!self.heads.contains_key(&head_pc), "head formed twice");
        let id = SuperblockId(self.registry.len() as u64);
        let gbytes = guest_bytes(self.program, &path);
        let exits = count_exits(self.program, &path);
        let translated = self.config.translation.translated_size(gbytes, exits);
        let sb = Superblock {
            id,
            head_pc,
            blocks: path,
            guest_bytes: gbytes,
            translated_bytes: translated,
            exits,
        };
        self.heads.insert(head_pc, id);
        self.trace.record_superblock(SuperblockInfo {
            id,
            head_pc,
            size: translated,
            guest_blocks: sb.blocks.len() as u32,
            exits,
        });
        self.registry.push(sb);
        // Initial insertion: the cold miss that creates the cache entry.
        // Eviction consequences (stub unpatching work) arrive pre-settled
        // in the summary, through the allocation-free event path.
        self.dispatch.translations += 1;
        match self
            .cache
            .access_or_insert_quiet(InsertRequest::new(id, translated))
        {
            Ok(outcome) => {
                if let Some(summary) = outcome.inserted {
                    self.dispatch.stub_unpatches += summary.links_unlinked;
                }
            }
            Err(CacheError::BlockTooLarge { .. }) => {}
            Err(e) => unreachable!("insertion of a fresh superblock failed: {e}"),
        }
        self.trace.record_access(id, None);
        self.dispatch.dispatched_entries += 1;
    }

    /// Handles control entering the head of formed superblock `id`.
    fn enter_superblock(&mut self, id: SuperblockId, from: Option<SuperblockId>) {
        // Did this entry ride an existing patched link?
        let rode_link =
            self.config.chaining && from.is_some_and(|s| self.cache.contains_link(s, id));
        let size = self.registry[id.0 as usize].translated_bytes;
        let hit = match self
            .cache
            .access_or_insert_quiet(InsertRequest::new(id, size))
        {
            Ok(outcome) => {
                if let Some(summary) = outcome.inserted {
                    // Regenerated the evicted superblock (steps 1–5 of
                    // §3.2).
                    self.regenerations += 1;
                    self.dispatch.translations += 1;
                    self.dispatch.stub_unpatches += summary.links_unlinked;
                }
                outcome.is_hit()
            }
            Err(CacheError::BlockTooLarge { .. }) => {
                // The miss was recorded; the block stays uncached.
                self.regenerations += 1;
                self.dispatch.translations += 1;
                false
            }
            Err(e) => unreachable!("regeneration insert failed: {e}"),
        };
        self.trace.record_access(id, from);
        if rode_link && hit {
            self.dispatch.linked_entries += 1;
        } else {
            self.dispatch.dispatched_entries += 1;
        }
        // Patch a new link if this was a direct transition between two
        // now-resident superblocks.
        if self.config.chaining {
            if let Some(s) = from {
                if self.cache.is_resident(s) && self.cache.is_resident(id) {
                    let _ = self.cache.link(s, id);
                }
            }
        }
        self.active = Some(ActivePath { id, pos: 0 });
    }
}

impl<S: CacheSession> ExecObserver for Engine<'_, S> {
    fn on_block_enter(&mut self, pc: Pc, block: &BasicBlock) {
        let bid = block.id;

        // 1. Are we executing inside a cached superblock's recorded path?
        if let Some(act) = self.active {
            let path = &self.registry[act.id.0 as usize].blocks;
            if act.pos + 1 < path.len() && path[act.pos + 1] == bid {
                self.active = Some(ActivePath {
                    id: act.id,
                    pos: act.pos + 1,
                });
                return;
            }
            // Fell off the end or took a side exit: the next superblock
            // entry (if immediate) is a chainable transition from here.
            self.pending_from = Some(act.id);
            self.active = None;
        }

        // 2. Recording mode: try to extend the nascent superblock.
        if self.recorder.is_some() {
            let is_head = self.heads.contains_key(&pc);
            let finished =
                self.recorder
                    .as_mut()
                    .expect("checked above")
                    .observe(self.program, bid, is_head);
            match finished {
                None => {
                    // Block absorbed into the recording; it executes via
                    // the interpreter while being recorded.
                    self.dispatch.interpreted_blocks += 1;
                    return;
                }
                Some(_reason) => {
                    let rec = self.recorder.take().expect("checked above");
                    self.finish_superblock(rec.into_path());
                    // Fall through: the current block still executes.
                }
            }
        }

        let from = self.pending_from.take();

        // 3. Entry into a formed superblock?
        if let Some(&id) = self.heads.get(&pc) {
            self.enter_superblock(id, from);
            return;
        }

        // 4. Cold code: executed from the basic-block cache when one is
        // configured and warm, interpreted otherwise.
        match &mut self.bb_cache {
            Some(bb) => {
                let bb_id = SuperblockId(bid.0 as u64);
                if bb.access(bb_id).is_hit() {
                    self.dispatch.bb_cache_entries += 1;
                } else {
                    self.dispatch.interpreted_blocks += 1;
                    let size = self.config.translation.translated_size(block.byte_len(), 1);
                    match bb.insert_request(InsertRequest::new(bb_id, size), &mut NullSink) {
                        Ok(_) | Err(CacheError::BlockTooLarge { .. }) => {}
                        Err(e) => unreachable!("bb-cache insert failed: {e}"),
                    }
                }
            }
            None => self.dispatch.interpreted_blocks += 1,
        }
        if self.profiler.record(pc) {
            self.profiler.retire(pc);
            self.recorder = Some(Recorder::new(self.program, bid, self.config.formation));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cce_tinyvm::builder::ProgramBuilder;
    use cce_tinyvm::gen::{generate, GenConfig};
    use cce_tinyvm::isa::{Cond, Instr, Reg};

    fn hot_loop_program(iters: i64) -> Program {
        let mut b = ProgramBuilder::new();
        let f = b.begin_function("main");
        let entry = b.block(f);
        let body = b.block(f);
        let body2 = b.block(f);
        let done = b.block(f);
        b.push(
            entry,
            Instr::MovImm {
                dst: Reg::R1,
                imm: iters,
            },
        );
        b.jump(entry, body);
        b.push(body, Instr::Nop);
        b.push(body, Instr::Nop);
        b.jump(body, body2);
        b.push(
            body2,
            Instr::AddImm {
                dst: Reg::R1,
                src: Reg::R1,
                imm: -1,
            },
        );
        b.branch(body2, Cond::Gt, Reg::R1, Reg::ZERO, body, done);
        b.halt(done);
        b.set_entry(f, entry);
        b.finish().unwrap()
    }

    #[test]
    fn hot_loop_forms_a_superblock() {
        let p = hot_loop_program(200);
        let cfg = EngineConfig {
            hot_threshold: 50,
            ..EngineConfig::default()
        };
        let mut e = Engine::new(&p, cfg).unwrap();
        let s = e.run(u64::MAX);
        assert_eq!(s.stop, StopReason::Halted);
        assert!(
            s.superblocks_formed >= 1,
            "a 200-iteration loop must go hot at threshold 50"
        );
        assert!(s.cache_stats.accesses > 0);
        assert_eq!(s.regenerations, 0, "unbounded cache never evicts");
    }

    #[test]
    fn below_threshold_nothing_forms() {
        let p = hot_loop_program(20);
        let mut e = Engine::new(&p, EngineConfig::default()).unwrap();
        let s = e.run(u64::MAX);
        assert_eq!(s.superblocks_formed, 0);
        assert_eq!(s.cache_stats.accesses, 0);
        assert_eq!(s.dispatch.interpreted_blocks, s.blocks_entered);
    }

    #[test]
    fn chaining_links_the_loop_back_edge() {
        let p = hot_loop_program(500);
        let mut e = Engine::new(&p, EngineConfig::default()).unwrap();
        let s = e.run(u64::MAX);
        assert!(s.cache_stats.links_created >= 1, "loop must self-chain");
        assert!(
            s.dispatch.linked_entries > 0,
            "after patching, iterations ride the link"
        );
        assert!(s.dispatch.linked_fraction() > 0.5);
    }

    #[test]
    fn chaining_disabled_dispatches_every_entry() {
        let p = hot_loop_program(500);
        let cfg = EngineConfig {
            chaining: false,
            ..EngineConfig::default()
        };
        let mut e = Engine::new(&p, cfg).unwrap();
        let s = e.run(u64::MAX);
        assert_eq!(s.dispatch.linked_entries, 0);
        assert_eq!(s.cache_stats.links_created, 0);
        assert!(s.dispatch.dispatched_entries > 50);
    }

    #[test]
    fn trace_registry_matches_formed_superblocks() {
        let p = generate(&GenConfig::small(3));
        let mut e = Engine::new(&p, EngineConfig::default()).unwrap();
        let s = e.run(50_000_000);
        let summary = e.trace().summary();
        assert_eq!(summary.superblock_count as u64, s.superblocks_formed);
        assert_eq!(summary.total_code_bytes, s.max_cache_bytes);
        assert_eq!(summary.accesses, s.cache_stats.accesses);
    }

    #[test]
    fn engine_is_deterministic() {
        let p = generate(&GenConfig::small(9));
        let run = || {
            let mut e = Engine::new(&p, EngineConfig::default()).unwrap();
            let s = e.run(50_000_000);
            (
                s.superblocks_formed,
                s.cache_stats.accesses,
                s.cache_stats.links_created,
                s.max_cache_bytes,
                e.into_trace(),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }

    #[test]
    fn tiny_cache_forces_regenerations() {
        let p = generate(&GenConfig::small(5));
        // First, measure maxCache unbounded (low threshold so the small
        // program's blocks actually go hot).
        let base = EngineConfig {
            hot_threshold: 2,
            ..EngineConfig::default()
        };
        let mut probe = Engine::new(&p, base.clone()).unwrap();
        let unbounded = probe.run(50_000_000);
        assert!(unbounded.max_cache_bytes > 0);
        // Now squeeze to a third (pressure 3).
        let mut cfg = base;
        cfg.cache_capacity = Some((unbounded.max_cache_bytes / 3).max(512));
        cfg.granularity = Granularity::units(4);
        let mut e = Engine::new(&p, cfg).unwrap();
        let s = e.run(50_000_000);
        if s.superblocks_formed > 3 {
            assert!(
                s.cache_stats.eviction_invocations > 0,
                "pressure must trigger evictions"
            );
        }
        // Identical guest behaviour regardless of cache size.
        assert_eq!(s.guest_instructions, unbounded.guest_instructions);
        // Every unpatched link the cache reported reached the dispatcher's
        // stub accounting through the event summaries.
        assert_eq!(s.dispatch.stub_unpatches, s.cache_stats.links_unlinked);
        assert_eq!(unbounded.dispatch.stub_unpatches, 0);
    }

    #[test]
    fn invalid_config_rejected() {
        let p = hot_loop_program(10);
        let cfg = EngineConfig {
            hot_threshold: 0,
            ..EngineConfig::default()
        };
        assert!(matches!(
            Engine::new(&p, cfg),
            Err(DbtError::InvalidConfig(_))
        ));
        let cfg = EngineConfig {
            cache_capacity: Some(0),
            ..EngineConfig::default()
        };
        assert!(matches!(Engine::new(&p, cfg), Err(DbtError::Cache(_))));
    }

    #[test]
    fn direct_transitions_recorded_in_trace() {
        let p = hot_loop_program(500);
        let mut e = Engine::new(&p, EngineConfig::default()).unwrap();
        let _ = e.run(u64::MAX);
        let direct = e
            .trace()
            .events
            .iter()
            .filter(|ev| {
                let crate::trace_log::TraceEvent::Access { direct_from, .. } = ev;
                direct_from.is_some()
            })
            .count();
        assert!(direct > 0, "loop iterations are direct transitions");
    }
}

#[cfg(test)]
mod sharded_engine_tests {
    use super::*;
    use cce_tinyvm::gen::{generate, GenConfig};

    #[test]
    fn one_shard_engine_matches_the_bare_engine() {
        let p = generate(&GenConfig::small(17));
        let cfg = EngineConfig {
            hot_threshold: 2,
            cache_capacity: Some(8192),
            granularity: Granularity::units(4),
            ..EngineConfig::default()
        };
        let mut bare = Engine::new(&p, cfg.clone()).unwrap();
        let b = bare.run(50_000_000);
        let mut sharded = Engine::sharded(&p, cfg, 1).unwrap();
        let s = sharded.run(50_000_000);
        assert_eq!(b.guest_instructions, s.guest_instructions);
        assert_eq!(b.superblocks_formed, s.superblocks_formed);
        assert_eq!(b.regenerations, s.regenerations);
        assert_eq!(b.cache_stats, s.cache_stats);
        assert_eq!(b.dispatch, s.dispatch);
        assert_eq!(bare.into_trace(), sharded.into_trace());
    }

    #[test]
    fn multi_shard_engine_preserves_guest_behaviour() {
        let p = generate(&GenConfig::small(18));
        let cfg = EngineConfig {
            hot_threshold: 2,
            cache_capacity: Some(8192),
            granularity: Granularity::units(4),
            ..EngineConfig::default()
        };
        let mut bare = Engine::new(&p, cfg.clone()).unwrap();
        let b = bare.run(50_000_000);
        let mut sharded = Engine::sharded(&p, cfg, 4).unwrap();
        let s = sharded.run(50_000_000);
        // Sharding changes cache behaviour, never guest execution.
        assert_eq!(b.guest_instructions, s.guest_instructions);
        assert_eq!(b.superblocks_formed, s.superblocks_formed);
        assert_eq!(b.cache_stats.accesses, s.cache_stats.accesses);
        // The per-shard breakdown covers the whole population.
        let cache = sharded.cache();
        assert_eq!(cache.shard_count(), 4);
        assert_eq!(
            (0..cache.shard_count())
                .map(|i| cache.shard(i).used())
                .sum::<u64>(),
            CacheSession::used(cache)
        );
        // Stub unpatching still reaches the dispatcher through the
        // summaries, cross-shard charges included.
        assert_eq!(
            s.dispatch.stub_unpatches, s.cache_stats.links_unlinked,
            "sharded unlink accounting must reach the dispatcher"
        );
    }
}

#[cfg(test)]
mod bb_cache_tests {
    use super::*;
    use cce_tinyvm::gen::{generate, GenConfig};

    #[test]
    fn bb_cache_absorbs_repeat_cold_executions() {
        let p = generate(&GenConfig::small(41));
        // High threshold: nothing forms superblocks, everything stays in
        // the basic-block tier.
        let cfg = EngineConfig {
            hot_threshold: 1_000_000,
            bb_cache_capacity: Some(UNBOUNDED_CAPACITY),
            ..EngineConfig::default()
        };
        let mut e = Engine::new(&p, cfg).unwrap();
        let s = e.run(50_000_000);
        assert_eq!(s.superblocks_formed, 0);
        let bb = s.bb_cache_stats.expect("bb cache configured");
        // Every block interpreted exactly once (its cold miss), all other
        // executions served from the bb cache.
        assert_eq!(s.dispatch.interpreted_blocks, bb.misses);
        assert_eq!(s.dispatch.bb_cache_entries, bb.hits);
        assert_eq!(
            s.dispatch.interpreted_blocks + s.dispatch.bb_cache_entries,
            s.blocks_entered
        );
        assert!(bb.hits > bb.misses, "loops must re-execute cached blocks");
    }

    #[test]
    fn bounded_bb_cache_evicts_and_still_tracks() {
        let p = generate(&GenConfig::small(42));
        let cfg = EngineConfig {
            hot_threshold: 1_000_000,
            bb_cache_capacity: Some(2048),
            ..EngineConfig::default()
        };
        let mut e = Engine::new(&p, cfg).unwrap();
        let s = e.run(50_000_000);
        let bb = s.bb_cache_stats.unwrap();
        assert!(bb.accesses > 0);
        assert!(bb.bytes_inserted >= bb.bytes_evicted);
    }

    #[test]
    fn single_cache_config_reports_none() {
        let p = generate(&GenConfig::small(43));
        let mut e = Engine::new(&p, EngineConfig::default()).unwrap();
        let s = e.run(50_000_000);
        assert!(s.bb_cache_stats.is_none());
        assert_eq!(s.dispatch.bb_cache_entries, 0);
    }

    #[test]
    fn guest_behaviour_unchanged_by_bb_cache() {
        let p = generate(&GenConfig::small(44));
        let run = |bb: Option<u64>| {
            let cfg = EngineConfig {
                hot_threshold: 2,
                bb_cache_capacity: bb,
                ..EngineConfig::default()
            };
            let mut e = Engine::new(&p, cfg).unwrap();
            let s = e.run(50_000_000);
            (s.guest_instructions, s.superblocks_formed, s.cache_stats)
        };
        assert_eq!(run(None), run(Some(4096)));
    }
}
