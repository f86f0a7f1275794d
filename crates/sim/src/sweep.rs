//! Deterministic threaded sweep runner.
//!
//! A full study is a `(benchmark × shard-count × granularity ×
//! pressure)` grid of independent simulator cells — embarrassingly
//! parallel, but figure regeneration demands *byte-identical* output run
//! to run. The runner therefore separates planning from execution:
//! [`plan`] enumerates the cells in a fixed canonical order (trace-major,
//! then shard count, then pressure, then granularity — with a single
//! shard count this is exactly the order the sequential grid loop has
//! always used), and `run_matrix` lets a scoped thread pool claim
//! work items — single cells on the oracle, ladder passes over a
//! trace's distinct rungs on the ladder — from an atomic cursor while
//! every worker writes its results into the cells' *pre-indexed slots*.
//! Scheduling nondeterminism affects only which thread computes a cell,
//! never where the result lands, so `--jobs N` output is byte-identical
//! to `--jobs 1`. Whole-trace sizing scans ([`TraceSizing`]) are hoisted
//! out and computed once per trace per plan, not once per cell.
//!
//! Callers configure sweeps through [`crate::replay::ReplayMatrix`]
//! (built by [`crate::replay::Replay::matrix`]); this module holds the
//! planner and the worker pool it runs on.

use crate::ladder::{simulate_rungs, Engine, NoObserver, Rung, MAX_LADDER_BATCH};
use crate::pressure::{cell_config, simulate_cell_source, TraceSizing};
use crate::simulator::{EventSource, SimConfig, SimError, SimResult};
use cce_core::Granularity;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One planned cell of a sweep, identified by axis indices so the cell
/// list itself stays small and `Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepCell {
    /// Index into the caller's trace slice.
    pub trace: usize,
    /// Granularity to simulate.
    pub granularity: Granularity,
    /// Cache-pressure factor `n` (capacity = `maxCache / n`).
    pub pressure: u32,
    /// Shard count (1 = a bare cache; >1 = a `ShardedCache` splitting
    /// the same total capacity).
    pub shards: u32,
}

/// One finished cell: the plan entry plus its simulation outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// The cell that was simulated.
    pub cell: SweepCell,
    /// The simulation outcome.
    pub result: SimResult,
}

/// Enumerates every `(trace, shards, pressure, granularity)` cell in
/// canonical order. This order is the contract:
/// [`ReplayMatrix::run`](crate::replay::ReplayMatrix::run) returns
/// results in exactly this sequence regardless of worker count. With
/// `shard_counts == [1]` the sequence is identical to the historical
/// `(trace, pressure, granularity)` order.
#[must_use]
pub fn plan(
    trace_count: usize,
    granularities: &[Granularity],
    pressures: &[u32],
    shard_counts: &[u32],
) -> Vec<SweepCell> {
    let mut cells = Vec::with_capacity(
        trace_count * granularities.len() * pressures.len() * shard_counts.len(),
    );
    for trace in 0..trace_count {
        for &shards in shard_counts {
            for &pressure in pressures {
                for &granularity in granularities {
                    cells.push(SweepCell {
                        trace,
                        granularity,
                        pressure,
                        shards,
                    });
                }
            }
        }
    }
    cells
}

/// Resolves the worker count: an explicit `--jobs` flag wins, then the
/// `CCE_JOBS` environment variable, then the machine's available
/// parallelism. Zero or unparsable values are treated as unset.
#[must_use]
pub fn resolve_jobs(flag: Option<usize>) -> usize {
    jobs_from(flag, std::env::var("CCE_JOBS").ok().as_deref())
}

/// The pure core of [`resolve_jobs`], separated so the precedence chain
/// is testable without mutating process environment.
#[must_use]
#[expect(
    clippy::disallowed_methods,
    reason = "job-count fallback only; per-job results are merged in config order"
)]
pub fn jobs_from(flag: Option<usize>, env: Option<&str>) -> usize {
    flag.filter(|&n| n > 0)
        .or_else(|| env.and_then(|s| s.trim().parse().ok()).filter(|&n| n > 0))
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
}

/// Runs every cell of the `(traces × shard-counts × granularities ×
/// pressures)` grid across `jobs` scoped worker threads and returns the
/// results in [`plan`] order. Any `Sync` [`EventSource`] works — an
/// in-memory [`cce_dbt::TraceLog`] or a decode-once
/// [`cce_dbt::SharedTrace`] whose `Arc`'d chunks every cell replays
/// without copying.
///
/// Workers claim cells from a shared atomic cursor (dynamic load
/// balancing — big benchmarks don't serialize behind small ones) and
/// each returns `(slot index, result)` pairs that are written back into
/// a pre-indexed result vector after the scope joins. The output is
/// therefore a pure function of the inputs, independent of `jobs`.
/// Per-trace [`TraceSizing`] summaries are computed once up front, so
/// adding shard counts never multiplies whole-trace scans.
///
/// When `engine` is [`Engine::Ladder`], the planner resolves every cell
/// of a trace — every shard count included — to its distinct ladder
/// rung, and the work items are single ladder passes over those rungs
/// (see `build_items` for how a trace's rungs are split over passes).
/// Either way every result lands in its plan slot, so the output —
/// including its byte identity across `jobs` counts — is unchanged.
///
/// # Errors
///
/// [`SimError::Config`] for a zero pressure. Otherwise, if any cell
/// fails, the error of the *lowest-indexed* failing cell — again
/// independent of scheduling and engine. A worker thread that dies
/// without reporting (a simulator bug surfacing as a panic) becomes
/// [`SimError::Worker`] rather than tearing down the caller.
pub(crate) fn run_matrix<T: EventSource + Sync>(
    traces: &[T],
    granularities: &[Granularity],
    pressures: &[u32],
    shard_counts: &[u32],
    base: &SimConfig,
    jobs: usize,
    engine: Engine,
) -> Result<Vec<SweepPoint>, SimError> {
    if pressures.contains(&0) {
        return Err(SimError::Config("pressure must be nonzero"));
    }
    let cells = plan(traces.len(), granularities, pressures, shard_counts);
    let sizings: Vec<TraceSizing> = traces.iter().map(TraceSizing::of_source).collect();
    let (items, rejected) = build_items(&cells, &sizings, base, jobs, engine);
    let jobs = jobs.max(1).min(items.len().max(1));
    let cursor = AtomicUsize::new(0);

    let mut slots: Vec<Option<Result<SimResult, SimError>>> = Vec::new();
    slots.resize_with(cells.len(), || None);
    for (i, err) in rejected {
        slots[i] = Some(Err(err));
    }

    std::thread::scope(|s| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                s.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        match items.get(i) {
                            None => break,
                            Some(WorkItem::Cell(idx)) => {
                                let cell = cells[*idx];
                                let r = simulate_cell_source(
                                    &traces[cell.trace],
                                    sizings[cell.trace],
                                    cell.granularity,
                                    cell.pressure,
                                    cell.shards,
                                    base,
                                );
                                local.push((*idx, r));
                            }
                            Some(WorkItem::Pass {
                                trace,
                                rungs,
                                slots,
                            }) => {
                                let results =
                                    simulate_rungs(&traces[*trace], rungs, base, &mut NoObserver);
                                // Each slot gets its rung's result under
                                // the label the cell *requested*.
                                local.extend(slots.iter().map(|&(i, rung)| {
                                    let result = match &results {
                                        Ok(results) => Ok(SimResult {
                                            granularity_label: cells[i].granularity.label(),
                                            ..results[rung].clone()
                                        }),
                                        Err(err) => Err(err.clone()),
                                    };
                                    (i, result)
                                }));
                            }
                        }
                    }
                    local
                })
            })
            .collect();
        let mut failure: Option<String> = None;
        for h in handles {
            match h.join() {
                Ok(rows) => {
                    for (i, r) in rows {
                        slots[i] = Some(r);
                    }
                }
                Err(payload) => {
                    let msg = payload
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_owned())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "worker panicked with an opaque payload".to_owned());
                    failure.get_or_insert(msg);
                }
            }
        }
        failure
    })
    .map_or(Ok(()), |msg| Err(SimError::Worker(msg)))?;

    let mut out = Vec::with_capacity(cells.len());
    for (idx, (cell, slot)) in cells.into_iter().zip(slots).enumerate() {
        // Unreachable once no worker failed, but a lost slot must not
        // become a panic either: surface it as the same error class.
        let result = slot.ok_or_else(|| {
            SimError::Worker(format!("cell {idx} was claimed but never reported"))
        })??;
        out.push(SweepPoint { cell, result });
    }
    Ok(out)
}

/// A unit of work a sweep worker claims from the cursor.
enum WorkItem {
    /// One grid cell on the per-cell oracle engine.
    Cell(usize),
    /// One ladder pass over distinct `rungs` of one trace. Each of
    /// `slots` pairs a plan index (a result slot) with the index of the
    /// rung in `rungs` that answers it.
    Pass {
        trace: usize,
        rungs: Vec<Rung>,
        slots: Vec<(usize, usize)>,
    },
}

/// Maps the planned cells onto work items for the chosen engine, plus
/// the cells settled at planning time with their error. Item order only
/// affects scheduling — results are slot-addressed — so neither engine
/// can change output by how it groups work.
///
/// The oracle gets one item per cell, and settles none up front.
///
/// The ladder deduplicates here, in one place. Each cell becomes a
/// [`Rung`] keyed by `(granularity, capacity, shards)`: the clamped
/// granularity, the total capacity before any unit truncation, and the
/// shard count (0 runs as 1, as on the oracle). Granularity clamping
/// and the pressure ladder's capacity floor collapse many requested
/// cells onto the same rung — on the paper grid well over half of them.
/// The simulator is deterministic, so each distinct rung is simulated
/// once and its result cloned into every requesting slot; only the
/// per-cell label differs. The oracle deliberately keeps paying per
/// cell — it is the baseline this shortcut is measured against.
///
/// A rung whose geometry the cache rejects fails its own cells with the
/// error the oracle's cache constructor returns, and never joins a
/// pass, so every other cell's outcome matches the oracle's too.
///
/// A trace's remaining rungs are dealt round-robin into
/// `⌈jobs / traces⌉` passes — so a grid with fewer traces than workers
/// still keeps every worker busy — and into at least enough passes that
/// none exceeds the ladder's 64 lanes, but never into more passes than
/// rungs. Every pass re-traverses the trace, so with at least as many
/// traces as workers a trace stays one pass.
fn build_items(
    cells: &[SweepCell],
    sizings: &[TraceSizing],
    base: &SimConfig,
    jobs: usize,
    engine: Engine,
) -> (Vec<WorkItem>, Vec<(usize, SimError)>) {
    if engine == Engine::Naive {
        return ((0..cells.len()).map(WorkItem::Cell).collect(), Vec::new());
    }
    // Per trace: each distinct rung with the plan indices it answers.
    let mut ladders: Vec<Vec<(Rung, Vec<usize>)>> = vec![Vec::new(); sizings.len()];
    for (i, cell) in cells.iter().enumerate() {
        let shards = cell.shards.max(1);
        let config = cell_config(
            sizings[cell.trace],
            cell.granularity,
            cell.pressure,
            shards,
            base,
        );
        let rung = Rung {
            granularity: config.granularity,
            capacity: config.capacity,
            shards,
        };
        let ladder = &mut ladders[cell.trace];
        match ladder.iter_mut().find(|(r, _)| *r == rung) {
            Some((_, members)) => members.push(i),
            None => ladder.push((rung, vec![i])),
        }
    }
    let share = jobs.max(1).div_ceil(sizings.len().max(1));
    let mut items = Vec::new();
    let mut rejected = Vec::new();
    for (trace, mut ladder) in ladders.into_iter().enumerate() {
        ladder.retain(|(rung, members)| match rung.shard_geometry() {
            Ok(_) => true,
            Err(err) => {
                rejected.extend(members.iter().map(|&i| (i, SimError::Cache(err))));
                false
            }
        });
        let passes = share
            .max(ladder.len().div_ceil(MAX_LADDER_BATCH))
            .min(ladder.len());
        for first in 0..passes {
            let mut rungs = Vec::new();
            let mut slots = Vec::new();
            for (rung, members) in ladder.iter().skip(first).step_by(passes) {
                slots.extend(members.iter().map(|&i| (i, rungs.len())));
                rungs.push(*rung);
            }
            items.push(WorkItem::Pass {
                trace,
                rungs,
                slots,
            });
        }
    }
    (items, rejected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pressure::sweep_trace;
    use cce_dbt::TraceLog;
    use cce_workloads::catalog;

    fn small_traces() -> Vec<TraceLog> {
        ["gzip", "mcf"]
            .iter()
            .map(|n| catalog::by_name(n).unwrap().trace(0.1, 7))
            .collect()
    }

    fn axes() -> (Vec<Granularity>, Vec<u32>) {
        (
            vec![
                Granularity::Flush,
                Granularity::units(8),
                Granularity::Superblock,
            ],
            vec![2, 6],
        )
    }

    #[test]
    fn plan_order_is_trace_major() {
        let (gs, ps) = axes();
        let cells = plan(2, &gs, &ps, &[1]);
        assert_eq!(cells.len(), 2 * 3 * 2);
        assert_eq!(
            cells[0],
            SweepCell {
                trace: 0,
                granularity: Granularity::Flush,
                pressure: 2,
                shards: 1
            }
        );
        // Granularity varies fastest, then pressure, then trace.
        assert_eq!(cells[1].granularity, Granularity::units(8));
        assert_eq!(cells[3].pressure, 6);
        assert_eq!(cells[6].trace, 1);
    }

    #[test]
    fn plan_nests_shard_counts_between_trace_and_pressure() {
        let (gs, ps) = axes();
        let cells = plan(2, &gs, &ps, &[1, 4]);
        assert_eq!(cells.len(), 2 * 2 * 3 * 2);
        // All shards=1 cells of trace 0 precede its shards=4 cells.
        assert!(cells[..6].iter().all(|c| c.trace == 0 && c.shards == 1));
        assert!(cells[6..12].iter().all(|c| c.trace == 0 && c.shards == 4));
        assert!(cells[12..18].iter().all(|c| c.trace == 1 && c.shards == 1));
    }

    #[test]
    fn jobs_precedence_flag_env_fallback() {
        assert_eq!(jobs_from(Some(3), Some("8")), 3);
        assert_eq!(jobs_from(None, Some("8")), 8);
        assert_eq!(jobs_from(None, Some(" 2 ")), 2);
        // Zero and garbage fall through to auto-detection.
        assert!(jobs_from(Some(0), None) >= 1);
        assert!(jobs_from(None, Some("0")) >= 1);
        assert!(jobs_from(None, Some("lots")) >= 1);
        assert!(jobs_from(None, None) >= 1);
    }

    #[test]
    fn sharded_matches_sequential_sweep() {
        let traces = small_traces();
        let (gs, ps) = axes();
        let base = SimConfig::default();
        let points = run_matrix(&traces, &gs, &ps, &[1], &base, 3, Engine::Naive).unwrap();

        // The sequential reference: per-trace pressure sweeps concatenated.
        let mut reference = Vec::new();
        for trace in &traces {
            reference.extend(sweep_trace(trace, &gs, &ps, &base).unwrap());
        }
        assert_eq!(points.len(), reference.len());
        for (p, r) in points.iter().zip(&reference) {
            assert_eq!(p.cell.granularity, r.granularity);
            assert_eq!(p.cell.pressure, r.pressure);
            assert_eq!(p.result, r.result);
        }
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let traces = small_traces();
        let (gs, ps) = axes();
        let base = SimConfig::default();
        let one = run_matrix(&traces, &gs, &ps, &[1], &base, 1, Engine::Naive).unwrap();
        for jobs in [2, 4, 16] {
            assert_eq!(
                one,
                run_matrix(&traces, &gs, &ps, &[1], &base, jobs, Engine::Naive).unwrap()
            );
        }
    }

    #[test]
    fn shard_axis_is_deterministic_across_worker_counts() {
        // ISSUE 4 acceptance: `--shards 4 --jobs k` byte-identical for
        // every k, preserving PR 1's determinism guarantee.
        let traces = small_traces();
        let (gs, ps) = axes();
        let base = SimConfig::default();
        let one = run_matrix(&traces, &gs, &ps, &[1, 4], &base, 1, Engine::Naive).unwrap();
        assert_eq!(one.len(), 2 * 2 * 3 * 2);
        for jobs in [2, 5, 16] {
            assert_eq!(
                one,
                run_matrix(&traces, &gs, &ps, &[1, 4], &base, jobs, Engine::Naive).unwrap()
            );
        }
        // And the shards=1 slice equals a shard-free sweep.
        let bare = run_matrix(&traces, &gs, &ps, &[1], &base, 2, Engine::Naive).unwrap();
        let n1: Vec<_> = one.iter().filter(|p| p.cell.shards == 1).cloned().collect();
        assert_eq!(n1, bare);
    }

    #[test]
    fn empty_grid_is_fine() {
        let base = SimConfig::default();
        let no_traces: &[TraceLog] = &[];
        assert_eq!(
            run_matrix(no_traces, &[], &[], &[1], &base, 4, Engine::Naive).unwrap(),
            vec![]
        );
    }

    #[test]
    fn ladder_engine_matches_the_naive_matrix() {
        let traces = small_traces();
        let (gs, ps) = axes();
        let base = SimConfig::default();
        let naive = run_matrix(&traces, &gs, &ps, &[1], &base, 2, Engine::Naive).unwrap();
        for jobs in [1, 2, 8] {
            let ladder = run_matrix(&traces, &gs, &ps, &[1], &base, jobs, Engine::Ladder).unwrap();
            assert_eq!(ladder, naive, "jobs={jobs}");
        }
    }

    #[test]
    fn ladder_engine_matches_naive_on_sharded_cells() {
        let traces = small_traces();
        let (gs, ps) = axes();
        let base = SimConfig::default();
        let shard_counts = [1, 3, 4];
        let naive = run_matrix(&traces, &gs, &ps, &shard_counts, &base, 2, Engine::Naive).unwrap();
        for jobs in [1, 2, 4] {
            let ladder = run_matrix(
                &traces,
                &gs,
                &ps,
                &shard_counts,
                &base,
                jobs,
                Engine::Ladder,
            )
            .unwrap();
            assert_eq!(ladder, naive, "jobs={jobs}");
        }
    }

    /// The ladder plan's passes as `(trace, rungs)`, after checking that
    /// nothing was rejected and that every cell has exactly one slot,
    /// pointing at a rung of its own trace's pass.
    fn ladder_passes(
        cells: &[SweepCell],
        traces: &[TraceLog],
        jobs: usize,
    ) -> Vec<(usize, Vec<Rung>)> {
        let sizings: Vec<TraceSizing> = traces.iter().map(TraceSizing::of).collect();
        let base = SimConfig::default();
        let (items, rejected) = build_items(cells, &sizings, &base, jobs, Engine::Ladder);
        assert!(rejected.is_empty());
        let mut answered = vec![0; cells.len()];
        let passes: Vec<_> = items
            .into_iter()
            .map(|item| match item {
                WorkItem::Pass {
                    trace,
                    rungs,
                    slots,
                } => {
                    assert!(!rungs.is_empty() && rungs.len() <= MAX_LADDER_BATCH);
                    for (i, rung) in slots {
                        assert_eq!(cells[i].trace, trace);
                        assert!(rung < rungs.len());
                        answered[i] += 1;
                    }
                    (trace, rungs)
                }
                WorkItem::Cell(_) => panic!("the ladder plans no per-cell items"),
            })
            .collect();
        assert!(answered.iter().all(|&n| n == 1), "{answered:?}");
        passes
    }

    #[test]
    fn a_one_trace_ladder_deals_its_rungs_over_the_workers() {
        let traces = &small_traces()[..1];
        let cells = plan(1, &Granularity::spectrum(8), &[2, 6, 10], &[1, 4]);
        let whole = ladder_passes(&cells, traces, 1);
        assert_eq!(whole.len(), 1, "one job: one pass");
        let distinct = &whole[0].1;
        assert!(distinct.len() < cells.len(), "duplicates collapse");
        for jobs in [2, 3] {
            let passes = ladder_passes(&cells, traces, jobs);
            assert_eq!(passes.len(), jobs);
            // Dealt round-robin: rung k lands in pass k % jobs, and no
            // rung is simulated twice.
            let dealt: Vec<Rung> = (0..distinct.len())
                .map(|k| passes[k % jobs].1[k / jobs])
                .collect();
            assert_eq!(&dealt, distinct);
            let total: usize = passes.iter().map(|(_, rungs)| rungs.len()).sum();
            assert_eq!(total, distinct.len());
        }
        assert_eq!(
            ladder_passes(&cells, traces, 1000).len(),
            distinct.len(),
            "never more passes than rungs"
        );
    }

    #[test]
    fn ladder_passes_split_only_when_traces_are_fewer_than_jobs() {
        let traces = small_traces();
        let (gs, ps) = axes();
        let cells = plan(2, &gs, &ps, &[1, 4]);
        let traces_of = |jobs| -> Vec<usize> {
            ladder_passes(&cells, &traces, jobs)
                .into_iter()
                .map(|(trace, _)| trace)
                .collect()
        };
        assert_eq!(traces_of(2), [0, 1]);
        assert_eq!(traces_of(3), [0, 0, 1, 1]);
        assert_eq!(traces_of(4), [0, 0, 1, 1]);
    }

    #[test]
    fn ladders_beyond_sixty_four_rungs_fill_passes_of_at_most_sixty_four() {
        let traces = &[catalog::by_name("gcc").unwrap().trace(0.04, 7)];
        let gs = Granularity::spectrum(8);
        let pressures: Vec<u32> = (2..=10).collect();
        let cells = plan(1, &gs, &pressures, &[1, 2]);
        let passes = ladder_passes(&cells, traces, 1);
        let distinct: usize = passes.iter().map(|(_, rungs)| rungs.len()).sum();
        assert!(
            distinct > MAX_LADDER_BATCH,
            "fixture lost its point: {distinct}"
        );
        assert_eq!(passes.len(), distinct.div_ceil(MAX_LADDER_BATCH));
        let base = SimConfig::default();
        let run = |jobs| {
            run_matrix(
                traces,
                &gs,
                &pressures,
                &[1, 2],
                &base,
                jobs,
                Engine::Ladder,
            )
            .unwrap()
        };
        let two_passes = run(1);
        assert_eq!(run(3), two_passes);
        // A sample of cells against the oracle (the full naive grid is
        // slow in debug builds; the catalog suites cover it).
        let sizing = TraceSizing::of(&traces[0]);
        for p in two_passes.iter().step_by(23) {
            let c = p.cell;
            let want = simulate_cell_source(
                &traces[0],
                sizing,
                c.granularity,
                c.pressure,
                c.shards,
                &base,
            );
            assert_eq!(p.result, want.unwrap(), "{c:?}");
        }
    }

    #[test]
    fn rejected_geometry_fails_only_its_own_cells_as_on_the_oracle() {
        // 5000 shards over a 4096-byte floor capacity leave empty
        // shards. The empty trace's first cell is unsharded, so the
        // oracle reports the empty trace, not the later cell's geometry.
        let gzip = catalog::by_name("gzip").unwrap().trace(0.1, 7);
        let traces = vec![TraceLog::new("empty"), gzip];
        let base = SimConfig::default();
        let run = |traces: &[TraceLog], jobs, engine| {
            run_matrix(
                traces,
                &[Granularity::Flush],
                &[1000],
                &[1, 5000],
                &base,
                jobs,
                engine,
            )
            .unwrap_err()
        };
        assert_eq!(run(&traces, 1, Engine::Naive), SimError::EmptyTrace);
        let zero = SimError::Cache(cce_core::CacheError::ZeroCapacity);
        assert_eq!(run(&traces[1..], 1, Engine::Naive), zero);
        for jobs in [1, 2, 4] {
            assert_eq!(run(&traces, jobs, Engine::Ladder), SimError::EmptyTrace);
            assert_eq!(run(&traces[1..], jobs, Engine::Ladder), zero);
        }
    }

    #[test]
    fn zero_pressure_is_a_config_error_on_both_engines() {
        let traces = small_traces();
        let base = SimConfig::default();
        for engine in [Engine::Naive, Engine::Ladder] {
            let err = run_matrix(
                &traces,
                &[Granularity::Flush],
                &[2, 0],
                &[1],
                &base,
                2,
                engine,
            );
            assert!(
                matches!(err, Err(SimError::Config(_))),
                "{engine:?}: {err:?}"
            );
        }
    }

    /// An [`EventSource`] whose stream blows up mid-replay, standing in
    /// for a simulator bug inside a worker thread.
    struct ExplodingSource {
        registry: Vec<cce_dbt::SuperblockInfo>,
    }

    impl EventSource for ExplodingSource {
        fn source_name(&self) -> &str {
            "exploding"
        }
        fn registry(&self) -> &[cce_dbt::SuperblockInfo] {
            &self.registry
        }
        fn event_count(&self) -> u64 {
            1
        }
        fn event_chunks(&self) -> Box<dyn Iterator<Item = &[cce_dbt::TraceEvent]> + '_> {
            panic!("injected worker fault");
        }
    }

    #[test]
    fn worker_panic_surfaces_as_an_error_not_a_crash() {
        let trace = catalog::by_name("gzip").unwrap().trace(0.1, 7);
        let sources = vec![ExplodingSource {
            registry: trace.registry().to_vec(),
        }];
        let base = SimConfig::default();
        let err = run_matrix(
            &sources,
            &[Granularity::Flush],
            &[2],
            &[1],
            &base,
            2,
            Engine::Naive,
        )
        .expect_err("the injected fault must be reported");
        match err {
            SimError::Worker(msg) => assert!(msg.contains("injected worker fault"), "{msg}"),
            other => panic!("wrong error class: {other:?}"),
        }
    }
}
