//! Counting global allocator: the benchmark's own measure of live heap bytes,
//! so `bytes_per_key` does not depend on any accounting inside the program
//! under test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Bytes currently allocated and not yet freed, process-wide. A statistic:
/// it publishes no other data, so `Relaxed` is enough.
static LIVE: AtomicUsize = AtomicUsize::new(0);

/// `System` plus a live-byte counter.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; the counter updates have no effect on the returned
// memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() {
            // Wrapping add of the (possibly negative) difference.
            LIVE.fetch_add(new_size.wrapping_sub(layout.size()), Ordering::Relaxed);
        }
        new_ptr
    }
}

/// Live heap bytes right now.
pub fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}
