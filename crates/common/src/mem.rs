//! Byte-accurate memory accounting.
//!
//! The paper's Fig. 14 reports the memory consumed by each order-
//! optimization framework during plan generation. We reproduce that by
//! having each framework report the bytes of its per-plan annotations and
//! shared structures through a [`MemoryMeter`] instead of relying on a
//! global allocator hook (which would also count plan-generator noise).
//!
//! The meter is atomic, so it is `Sync`: planners on several threads
//! sharing one oracle all charge its one meter without any external
//! locking. The counters are logical bytes, not allocator truth, so
//! relaxed ordering is sufficient.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Tracks current and peak logical byte usage of one subsystem.
///
/// Atomics keep the accounting callable from `&self` methods on oracles
/// without threading `&mut` through the plan generator, and make the
/// meter shareable across threads.
#[derive(Debug, Default)]
pub struct MemoryMeter {
    current: AtomicUsize,
    peak: AtomicUsize,
}

impl MemoryMeter {
    /// Creates a meter with zero usage.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an allocation of `bytes`.
    pub fn alloc(&self, bytes: usize) {
        let cur = self.current.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(cur, Ordering::Relaxed);
    }

    /// Records a release of `bytes`.
    pub fn free(&self, bytes: usize) {
        // Saturate at zero (a free may race another thread's alloc; the
        // counter is logical, so clamping beats wrapping).
        let _ = self
            .current
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                Some(cur.saturating_sub(bytes))
            });
    }

    /// Bytes currently accounted.
    pub fn current(&self) -> usize {
        self.current.load(Ordering::Relaxed)
    }

    /// High-water mark in bytes.
    pub fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// Resets both counters to zero.
    pub fn reset(&self) {
        self.current.store(0, Ordering::Relaxed);
        self.peak.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_current_and_peak() {
        let m = MemoryMeter::new();
        m.alloc(100);
        m.alloc(50);
        assert_eq!(m.current(), 150);
        assert_eq!(m.peak(), 150);
        m.free(120);
        assert_eq!(m.current(), 30);
        assert_eq!(m.peak(), 150);
        m.alloc(10);
        assert_eq!(m.peak(), 150);
    }

    #[test]
    fn free_saturates() {
        let m = MemoryMeter::new();
        m.alloc(5);
        m.free(100);
        assert_eq!(m.current(), 0);
    }

    #[test]
    fn reset_zeroes_everything() {
        let m = MemoryMeter::new();
        m.alloc(42);
        m.reset();
        assert_eq!(m.current(), 0);
        assert_eq!(m.peak(), 0);
    }

    #[test]
    fn meter_is_shareable_across_threads() {
        let m = MemoryMeter::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        m.alloc(3);
                        m.free(1);
                    }
                });
            }
        });
        assert_eq!(m.current(), 4 * 1000 * 2);
        assert!(m.peak() >= m.current());
    }
}
