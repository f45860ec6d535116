//! A counting global allocator (feature `count-allocs`).
//!
//! [`CountingAlloc`] wraps [`System`] and counts every allocation and
//! allocated byte in relaxed atomics — two uncontended fetch-adds per
//! allocation, cheap enough to leave on for benchmark binaries. The
//! `ofw-bench` crate installs it as the `#[global_allocator]` so its
//! allocation guard (`tests/exec_allocs.rs`) can bound the allocations
//! of the executor's hash operators: a deterministic allocation-pressure
//! proxy that catches regressions wall-clock noise would hide.
//!
//! Counts are process-global and monotone; callers measure a region by
//! differencing [`allocation_count`] snapshots. Deallocations are not
//! tracked — the count measures allocator traffic, not live footprint
//! (that is [`crate::mem::MemoryMeter`]'s job).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// A [`System`]-backed allocator that counts allocations.
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: ofw_common::alloc::CountingAlloc = ofw_common::alloc::CountingAlloc;
/// ```
pub struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocations made by the process so far (monotone).
pub fn allocation_count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Bytes requested from the allocator so far (monotone; reallocs count
/// their full new size).
pub fn allocated_bytes() -> u64 {
    BYTES.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_monotone() {
        // Without the `#[global_allocator]` installed the counters stay
        // at whatever they were — this only checks the accessors and
        // that manual accounting is visible.
        let a0 = allocation_count();
        let b0 = allocated_bytes();
        ALLOCS.fetch_add(3, Ordering::Relaxed);
        BYTES.fetch_add(128, Ordering::Relaxed);
        assert!(allocation_count() >= a0 + 3);
        assert!(allocated_bytes() >= b0 + 128);
    }
}
