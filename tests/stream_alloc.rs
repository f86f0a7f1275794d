//! Streamed replay allocates nothing per event (DESIGN.md §11's memory
//! contract, steady-state half, for the `TraceReader` path).
//!
//! The counter is process-wide, not per thread, because the decoder runs
//! on `TraceReader`'s own thread; so this binary holds exactly one test,
//! and no other test's allocations land in the count. A catalog trace T
//! and T twice over (one registry, so one footprint and capacity) are
//! both written by `save_binary_chunked` and replayed through
//! `Replay::stream`. The two counts may differ by [`SLACK`] plus one
//! allocation per extra chunk: the decoder recycles a spent chunk only
//! if the consumer has already let go of it, which depends on thread
//! timing. One allocation per event would show here as tens of
//! thousands.

use cce::core::Granularity;
use cce::dbt::trace_bin::save_binary_chunked;
use cce::dbt::{TraceLog, TraceReader};
use cce::sim::Replay;
use cce::workloads::catalog;
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Cursor;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

/// Allocation calls made by every thread of the process.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations a doubled trace may add besides its extra chunks, as in
/// `replay_alloc.rs`: a link row can meet an edge first in the second
/// pass and grow once more, bounded by the registry, not the events.
const SLACK: u64 = 16;

/// Events per chunk frame: small enough that T spans many chunks, so
/// the decoder's chunk recycling is exercised.
const CHUNK_EVENTS: usize = 1024;

fn binary(log: &TraceLog) -> Vec<u8> {
    let mut bytes = Vec::new();
    save_binary_chunked(log, &mut bytes, CHUNK_EVENTS).expect("vec write cannot fail");
    bytes
}

/// Allocation calls one streamed 8-Unit replay at pressure 2 makes, on
/// every thread, from opening the reader to joining its decoder.
fn streamed_allocations(bytes: Vec<u8>) -> u64 {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let mut reader = TraceReader::new(Cursor::new(bytes)).expect("header decodes");
    let report = Replay::stream(&mut reader)
        .granularity(Granularity::units(8))
        .pressure(2)
        .run()
        .expect("replay runs");
    // Dropping the reader joins its decoder thread.
    drop(reader);
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert!(report.solo().stats.eviction_invocations > 0, "no pressure");
    after - before
}

#[test]
fn streamed_replay_allocations_do_not_grow_with_events() {
    let once = catalog::by_name("gcc")
        .expect("gcc is in the catalog")
        .trace(0.05, 7);
    let mut twice = once.clone();
    twice.events.extend_from_slice(&once.events);
    let extra_chunks = (twice.events.len().div_ceil(CHUNK_EVENTS)
        - once.events.len().div_ceil(CHUNK_EVENTS)) as u64;
    let (bytes_once, bytes_twice) = (binary(&once), binary(&twice));

    let a = streamed_allocations(bytes_once);
    let b = streamed_allocations(bytes_twice);
    assert!(
        b.abs_diff(a) <= SLACK + extra_chunks,
        "{a} allocations for {} events, {b} for {} ({extra_chunks} extra chunks)",
        once.events.len(),
        twice.events.len()
    );
}
