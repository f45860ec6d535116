//! A small, dependency-free, deterministic thread pool: one
//! [`std::thread::scope`] per job.
//!
//! 1. **Determinism.** A job is `n` independent chunks `f(0) … f(n-1)`;
//!    each runs exactly once and the results come back *in chunk
//!    order*, so the caller cannot observe the schedule.
//! 2. **Scope per job.** A pool is a thread budget and nothing else.
//!    `run` spawns `min(threads, chunks) - 1` scoped helpers; they and
//!    the submitting thread claim chunk indices from one atomic counter,
//!    and the submitter sorts their `(index, result)` pairs back into
//!    chunk order. The scope joins every helper before `run` returns, so
//!    no borrow outlives the job and the borrow checker proves it. The
//!    price is a spawn per helper per job: about 40 µs a two-chunk job
//!    on a 2-core VM, against 1–1.5 µs for workers parked between jobs.
//! 3. **No dependencies.** `std` only (no rayon / crossbeam), per the
//!    offline `vendor/` policy.
//!
//! A chunk's panic is re-raised on the submitter with its payload. Jobs
//! share nothing, so a chunk that calls `run` opens a scope of its own
//! and cannot deadlock behind the job it is part of.

use ofw_common::OrderedExecutor;
use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// The pool. See the module docs for the design.
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// Creates a pool that uses at most `threads` OS threads per job:
    /// the submitting thread participates, so up to `threads - 1`
    /// helpers are spawned. `threads == 1` is the serial degenerate case
    /// (no helpers, chunks run inline in order).
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "a pool needs at least one thread");
        ThreadPool { threads }
    }

    /// Runs `task(i)` exactly once for every `i in 0..chunks` across the
    /// pool and returns the results in chunk order. Blocks until the
    /// whole job is done; panics in chunks are re-raised here.
    pub fn run<R: Send>(&self, chunks: usize, task: &(dyn Fn(usize) -> R + Sync)) -> Vec<R> {
        let helpers = self.threads.min(chunks).saturating_sub(1);
        if helpers == 0 {
            return (0..chunks).map(task).collect();
        }
        let next = AtomicUsize::new(0);
        // Each thread claims chunks until none is left, keeping its pairs.
        let claim = || {
            let mut done = Vec::new();
            loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                if idx >= chunks {
                    return done;
                }
                done.push((idx, task(idx)));
            }
        };
        let mut out = thread::scope(|scope| {
            let handles: Vec<_> = (0..helpers).map(|_| scope.spawn(claim)).collect();
            let mut out = claim();
            for handle in handles {
                match handle.join() {
                    Ok(done) => out.extend(done),
                    Err(payload) => panic::resume_unwind(payload),
                }
            }
            out
        });
        // Sorting restores chunk order: the determinism contract.
        out.sort_unstable_by_key(|&(idx, _)| idx);
        debug_assert_eq!(out.len(), chunks);
        out.into_iter().map(|(_, r)| r).collect()
    }
}

impl OrderedExecutor for ThreadPool {
    fn run_ordered<R: Send>(&self, n: usize, f: &(dyn Fn(usize) -> R + Sync)) -> Vec<R> {
        self.run(n, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::AssertUnwindSafe;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn results_come_back_in_chunk_order() {
        for threads in [1, 2, 4, 8] {
            let pool = ThreadPool::new(threads);
            let out = pool.run(100, &|i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_chunk_runs_exactly_once() {
        let pool = ThreadPool::new(4);
        let counts: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        // Uneven chunk durations make the threads claim unevenly.
        pool.run(64, &|i| {
            if i % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            counts[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "chunk {i}");
        }
    }

    #[test]
    fn pool_is_reusable_across_jobs() {
        let pool = ThreadPool::new(3);
        for round in 0..20 {
            let out = pool.run(10, &|i| i + round);
            assert_eq!(out, (0..10).map(|i| i + round).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_chunks_is_a_noop() {
        let pool = ThreadPool::new(2);
        let out: Vec<usize> = pool.run(0, &|i| i);
        assert!(out.is_empty());
    }

    /// A chunk's panic payload reaches the submitter unchanged, whether
    /// the submitter's own chunk raised it or a helper's did.
    #[test]
    fn chunk_panics_propagate_to_the_submitter() {
        let pool = ThreadPool::new(4);
        let payload = |chunks: usize, task: &(dyn Fn(usize) + Sync)| {
            let caught = panic::catch_unwind(AssertUnwindSafe(|| pool.run(chunks, task)));
            *caught.expect_err("job panics").downcast::<&str>().unwrap()
        };
        // Every chunk panics: the submitter always claims one and unwinds.
        let every = payload(16, &|_| panic!("every chunk exploded"));
        assert_eq!(every, "every chunk exploded");
        // Only a helper's chunk panics (the submitter's waits until a
        // helper has claimed the other), so the helper's join re-raises.
        let submitter = thread::current().id();
        let helper_claimed = AtomicBool::new(false);
        let helper = payload(2, &|_| {
            if thread::current().id() != submitter {
                helper_claimed.store(true, Ordering::Release);
                panic!("a helper's chunk exploded");
            }
            while !helper_claimed.load(Ordering::Acquire) {
                thread::yield_now();
            }
        });
        assert_eq!(helper, "a helper's chunk exploded");
        // The pool survives the panic and keeps working.
        assert_eq!(pool.run(3, &|i| i), vec![0, 1, 2]);
    }

    /// Every chunk of a job submits a job of its own to the same pool.
    /// Run on a thread of its own so a deadlock fails the test instead
    /// of hanging it.
    #[test]
    fn nested_runs_complete_in_chunk_order() {
        let (tx, rx) = std::sync::mpsc::channel();
        let submitter = std::thread::spawn(move || {
            let pool = ThreadPool::new(2);
            let _ = tx.send(pool.run(4, &|i| pool.run(3, &|j| 10 * i + j)));
        });
        let out = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("a nested run must not deadlock");
        submitter.join().expect("the submitting thread finishes");
        let want: Vec<Vec<usize>> = (0..4)
            .map(|i| (0..3).map(|j| 10 * i + j).collect())
            .collect();
        assert_eq!(out, want);
    }

    #[test]
    fn identical_results_for_every_thread_count() {
        // The determinism contract the executor relies on.
        let hash = |i: usize| (i as u64).wrapping_mul(0x9e3779b9);
        let reference: Vec<u64> = (0..200).map(hash).collect();
        for threads in [1, 2, 3, 5, 8] {
            let pool = ThreadPool::new(threads);
            let out = pool.run(200, &hash);
            assert_eq!(out, reference, "threads={threads}");
        }
        // Fewer chunks than threads: only `chunks - 1` helpers spawn.
        let pool = ThreadPool::new(8);
        for chunks in 1..=3 {
            let out = pool.run(chunks, &hash);
            assert_eq!(out, reference[..chunks], "chunks={chunks}");
        }
    }

    #[test]
    fn morsel_execution_is_order_preserving_at_any_width() {
        // The vectorized executor's contract: partition rows into
        // fixed-size morsels (boundaries never depend on the pool),
        // process each morsel on whatever thread, and reassemble the
        // per-morsel results in morsel *index* order — so the
        // concatenated output is byte-identical to the serial run at
        // every pool width.
        let rows: Vec<i64> = (0..10_000).map(|i| (i * 37) % 101).collect();
        let ranges = ofw_common::morsel_ranges(rows.len(), 256);
        let per_morsel = |m: usize| -> Vec<i64> { rows[ranges[m].clone()].to_vec() };
        let serial = ofw_common::SerialExecutor.run_ordered(ranges.len(), &per_morsel);
        assert_eq!(serial.concat(), rows, "morsels cover the input in order");
        for threads in [1, 2, 8] {
            let pool = ThreadPool::new(threads);
            let pooled = pool.run_ordered(ranges.len(), &per_morsel);
            assert_eq!(pooled, serial, "threads={threads}");
        }
    }
}
