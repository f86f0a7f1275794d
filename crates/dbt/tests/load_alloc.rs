//! Allocation bound of the binary trace loader (DESIGN.md §11: decoders
//! bound every allocation by bytes actually read).
//!
//! A counting global allocator (own test binary, so other tests are not
//! affected) sums the bytes requested while [`load_binary`] reads a
//! file whose header claims 2²⁴ events but that holds no chunk. The
//! claim alone must not make the loader reserve room for those events.

use cce_dbt::trace_bin::{load_binary, MAGIC, VERSION};
use cce_dbt::trace_log::TraceLogError;
use cce_util::crc::crc32;
use cce_util::varint;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Bytes requested by *this* thread (`cargo test` runs tests on
    /// parallel threads; `const` and no destructor, so the allocator can
    /// touch it at any point of a thread's life).
    static REQUESTED: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    let _ = REQUESTED.try_with(|n| n.set(n.get() + bytes as u64));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn requested() -> u64 {
    REQUESTED.with(Cell::get)
}

/// Magic, version, a header frame (empty name, `event_count`, empty
/// registry) and the terminator: no event chunk at all.
fn header_only(event_count: u64) -> Vec<u8> {
    let mut payload = Vec::new();
    varint::write_u64(&mut payload, 0);
    varint::write_u64(&mut payload, event_count);
    varint::write_u64(&mut payload, 0);
    let mut file = MAGIC.to_vec();
    file.extend_from_slice(&VERSION.to_le_bytes());
    file.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    file.extend_from_slice(&crc32(&payload).to_le_bytes());
    file.extend_from_slice(&payload);
    file.extend_from_slice(&0u32.to_le_bytes());
    file
}

#[test]
fn a_claimed_event_count_reserves_nothing_before_chunks_arrive() {
    let file = header_only(1 << 24);
    assert_eq!(file.len(), 24);
    let before = requested();
    let got = load_binary(file.as_slice());
    let bytes = requested() - before;
    assert!(
        matches!(got, Err(TraceLogError::Corrupt(_))),
        "a file without its events must be corrupt: {got:?}"
    );
    assert!(
        bytes < 64 * 1024,
        "{bytes} bytes requested to load a 24-byte file"
    );
}
