//! The benchmark's allocator set-up: a counting `#[global_allocator]`
//! (count, bytes, live bytes and their peak) and glibc's `mallopt`
//! thresholds.
//!
//! Execution is page-fault-bound under glibc's defaults: every large
//! column buffer is `mmap`ed and unmapped again, and one measured run
//! spent ten times its user time in the kernel. Raising the mmap and
//! trim thresholds makes the allocator reuse freed buffers, which took
//! the run-to-run spread of the execution suites from 15 % to 3 %. The
//! settings are the same on every commit, so they cancel in any
//! before/after pair.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

// Statistics only: no other memory is published through these, so
// `Relaxed` is enough.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

pub struct CountingAlloc;

fn grew(bytes: u64) {
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(bytes, Relaxed);
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size() as u64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        grew(new_size as u64);
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocator counters at one instant; spans difference two of these.
#[derive(Clone, Copy, Default)]
pub struct AllocSnapshot {
    pub allocs: u64,
    pub bytes: u64,
}

pub fn snapshot() -> AllocSnapshot {
    AllocSnapshot {
        allocs: ALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
    }
}

/// Highest number of live heap bytes seen so far.
pub fn live_peak_bytes() -> u64 {
    PEAK.load(Relaxed)
}

// glibc refuses an mmap threshold above 32 MiB (half its heap size).
pub const MMAP_THRESHOLD: i32 = 32 << 20;
pub const TRIM_THRESHOLD: i32 = 1 << 30;
pub const TOP_PAD: i32 = 64 << 20;

/// Raises glibc's thresholds (see the module docs). Returns what the
/// run header prints.
pub fn tune_malloc() -> String {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_TOP_PAD: i32 = -2;
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: `mallopt` only stores tuning integers inside glibc's
        // allocator; it is called once, before any other thread exists.
        let ok = unsafe {
            mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
                && mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1
                && mallopt(M_TOP_PAD, TOP_PAD) == 1
        };
        format!(
            "mmap_threshold={MMAP_THRESHOLD} trim_threshold={TRIM_THRESHOLD} top_pad={TOP_PAD} applied={ok}"
        )
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    {
        "not glibc: allocator defaults".to_string()
    }
}

/// `VmHWM` of this process in MiB (0 where `/proc` has none).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}
