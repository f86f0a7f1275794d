//! Replay allocates nothing per event (DESIGN.md §11's memory contract,
//! steady-state half).
//!
//! A counting global allocator (own test binary, so other tests are not
//! affected) counts the allocation calls one replay makes. A catalog
//! trace T and T twice over (the same superblock registry, so the same
//! footprint and capacity) must cost the same number of allocations up
//! to [`SLACK`]: whatever a replay allocates scales with the registry
//! (link-graph rows, size tables), never with the event count. One
//! allocation per event would show here as thousands.

use cce::core::Granularity;
use cce::dbt::TraceLog;
use cce::sim::Replay;
use cce::workloads::catalog;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocation calls made by *this* thread (`cargo test` runs tests
    /// on parallel threads; `const` and no destructor, so the allocator
    /// can touch it at any point of a thread's life).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations a doubled trace may add. A link row (a `Vec` per block)
/// can meet an edge first in the second pass, such as the seam from T's
/// last block back to its first, and grow once more; that is bounded by
/// the registry, not the events. gcc at scale 0.05 reads +2 solo and +7
/// over four shards; ROADMAP item 24 measured +1 at scale 1.
const SLACK: u64 = 16;

/// T and T twice over, sharing one registry.
fn trace_and_double() -> (TraceLog, TraceLog) {
    let once = catalog::by_name("gcc")
        .expect("gcc is in the catalog")
        .trace(0.05, 7);
    let mut twice = once.clone();
    twice.events.extend_from_slice(&once.events);
    (once, twice)
}

/// Allocation calls one 8-Unit replay at pressure 2 over `shards`
/// shards makes.
fn replay_allocations(trace: &TraceLog, shards: u32) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    let report = Replay::new(trace)
        .granularity(Granularity::units(8))
        .pressure(2)
        .shards(shards)
        .run()
        .expect("replay runs");
    let after = ALLOCATIONS.with(Cell::get);
    assert!(report.solo().stats.eviction_invocations > 0, "no pressure");
    drop(report);
    after - before
}

fn assert_flat_in_events(shards: u32) {
    let (once, twice) = trace_and_double();
    let a = replay_allocations(&once, shards);
    let b = replay_allocations(&twice, shards);
    assert!(
        b.abs_diff(a) <= SLACK,
        "{shards} shard(s): {a} allocations for {} events, {b} for {}",
        once.events.len(),
        twice.events.len()
    );
}

#[test]
fn solo_replay_allocations_do_not_grow_with_events() {
    assert_flat_in_events(1);
}

#[test]
fn sharded_replay_allocations_do_not_grow_with_events() {
    assert_flat_in_events(4);
}
