//! Ordered chunk execution, and the morsel partitioner.
//!
//! [`morsel_ranges`] cuts a row range into the fixed-size morsels that
//! `ofw-exec` works through, one task each, in morsel order on the
//! calling thread.
//!
//! [`OrderedExecutor`] — "run `f(0), f(1), …, f(n-1)` and give me the
//! results *in index order*", inline ([`SerialExecutor`]) or on the
//! `ofw-parallel` pool's scoped threads — no longer schedules any
//! executor or planner work. It is kept only because the frozen
//! pipeline benchmark still passes executors to
//! `ofw_exec::execute_plan` and `PlanGen::run_with`, which both ignore
//! them, and times the pool on its own; it goes with the next change
//! to the benchmark.

use std::ops::Range;

/// Executes `n` independent tasks and returns their results in index
/// order, regardless of execution order.
pub trait OrderedExecutor {
    /// Runs `f(i)` exactly once for every `i in 0..n`; `results[i]`
    /// holds the value of `f(i)`.
    fn run_ordered<R: Send>(&self, n: usize, f: &(dyn Fn(usize) -> R + Sync)) -> Vec<R>;
}

/// The trivial executor: runs every task inline, in index order.
#[derive(Clone, Copy, Debug, Default)]
pub struct SerialExecutor;

impl OrderedExecutor for SerialExecutor {
    fn run_ordered<R: Send>(&self, n: usize, f: &(dyn Fn(usize) -> R + Sync)) -> Vec<R> {
        (0..n).map(f).collect()
    }
}

/// Splits `0..len` into fixed-size morsels of `morsel` rows (the last
/// one shorter). The partition depends only on `len` and `morsel`,
/// which is the first half of the executor's determinism contract (the
/// second half is writing each morsel's results in place, in morsel
/// order).
pub fn morsel_ranges(len: usize, morsel: usize) -> Vec<Range<usize>> {
    assert!(morsel > 0, "morsel size must be positive");
    let mut out = Vec::with_capacity(len.div_ceil(morsel));
    let mut start = 0;
    while start < len {
        let end = (start + morsel).min(len);
        out.push(start..end);
        start = end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_executor_preserves_index_order() {
        let r = SerialExecutor.run_ordered(5, &|i| i * 10);
        assert_eq!(r, vec![0, 10, 20, 30, 40]);
    }

    #[test]
    fn empty_run_is_empty() {
        let r: Vec<usize> = SerialExecutor.run_ordered(0, &|i| i);
        assert!(r.is_empty());
    }

    #[test]
    fn morsel_ranges_are_fixed_size_and_cover_exactly_once() {
        for len in 0..50 {
            for morsel in 1..8 {
                let ranges = morsel_ranges(len, morsel);
                let flat: Vec<usize> = ranges.iter().cloned().flatten().collect();
                let expect: Vec<usize> = (0..len).collect();
                assert_eq!(flat, expect, "len={len} morsel={morsel}");
                // Every morsel but the last is exactly `morsel` rows.
                for r in ranges.iter().take(ranges.len().saturating_sub(1)) {
                    assert_eq!(r.len(), morsel);
                }
            }
        }
        assert!(morsel_ranges(0, 4).is_empty());
    }
}
