//! A small, dependency-free, deterministic work-stealing thread pool.
//!
//! Design constraints, in order:
//!
//! 1. **Determinism.** A job is `n` independent chunks `f(0) … f(n-1)`;
//!    the pool guarantees each chunk runs exactly once and returns the
//!    results *in chunk order*, so the caller cannot observe the
//!    schedule. Which thread ran which chunk is free to vary; what comes
//!    back is not.
//! 2. **Spawn-once.** Workers are OS threads spawned at pool creation
//!    and parked on a condvar between jobs — the executor submits one
//!    job per operator pass over its morsels, far too often to amortize
//!    a `thread::spawn` per job.
//! 3. **Chunked queues + stealing.** Chunk indices are block-partitioned
//!    across per-worker deques ([`ofw_common::chunk_ranges`]); a worker
//!    pops from its own queue's front and steals from the *back* of the
//!    next busy worker's queue when it runs dry, so neighbors collide as
//!    little as possible. Mutexed `VecDeque`s, not lock-free deques:
//!    chunks are coarse (a morsel of rows each), so queue traffic is
//!    thousands of pops per job, not millions.
//! 4. **No dependencies.** `std` only, consistent with the offline
//!    `vendor/` policy (no rayon / crossbeam).
//!
//! The only `unsafe` is the lifetime erasure of the job closure: `run`
//! hands workers a raw pointer to a stack closure and blocks until every
//! chunk has finished (`remaining == 0`), so the pointer is never
//! dereferenced after `run` returns. Panics in chunks are caught,
//! forwarded, and re-raised on the submitting thread.
//!
//! One job runs at a time. A chunk that calls `run` — on this pool or
//! any other — does not submit: its job runs inline on the calling
//! thread, in index order, which by constraint 1 returns exactly what a
//! submitted job would. Submitting would deadlock: the chunk would wait
//! behind the job it is part of.

use ofw_common::{chunk_ranges, OrderedExecutor};
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// Locks ignoring poison: every mutex in this module guards data that
/// stays consistent across an unwinding chunk (panics are caught at the
/// chunk boundary and re-raised on the submitter), so a poisoned lock
/// carries no hazard — and the pool must stay usable after one.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

thread_local! {
    /// Set while this thread runs a chunk: a `run` from inside one runs
    /// its job inline (see the module docs).
    static IN_CHUNK: Cell<bool> = const { Cell::new(false) };
}

/// A chunk task as the workers see it: lifetime-erased, side-effecting
/// (the result capture lives inside the closure).
type Task = dyn Fn(usize) + Sync;

/// Raw, lifetime-erased pointer to the current job's task. Only
/// dereferenced while the submitting `run` call is still blocked.
#[derive(Clone, Copy)]
struct TaskRef(*const Task);

/// Erases the borrow lifetime of a task pointer (fat-pointer layout is
/// lifetime-independent).
///
/// # Safety
/// The caller must guarantee the pointee outlives every dereference —
/// `run` does, by blocking until `remaining == 0`.
unsafe fn erase_task<'a>(t: *const (dyn Fn(usize) + Sync + 'a)) -> *const Task {
    std::mem::transmute(t)
}

// SAFETY: the pointee is `Sync` (shared calls are fine) and `run`
// outlives every dereference (see the module docs).
unsafe impl Send for TaskRef {}
unsafe impl Sync for TaskRef {}

/// One submitted job: the task, per-worker chunk queues, and the count
/// of chunks not yet finished.
#[derive(Clone)]
struct Job {
    task: TaskRef,
    queues: Arc<Vec<Mutex<VecDeque<usize>>>>,
    remaining: Arc<AtomicUsize>,
}

struct State {
    /// Bumped on every submission; workers use it to tell a fresh job
    /// from the one they just drained.
    epoch: u64,
    job: Option<Job>,
    shutdown: bool,
    /// First panic payload raised by a chunk, re-thrown by `run`.
    panic: Option<Box<dyn std::any::Any + Send>>,
}

struct Shared {
    state: Mutex<State>,
    /// Workers wait here for a new epoch.
    job_ready: Condvar,
    /// The submitter waits here for `remaining == 0`.
    job_done: Condvar,
}

/// The pool. See the module docs for the design.
pub struct ThreadPool {
    shared: Arc<Shared>,
    /// Serializes submissions (one job at a time).
    submit_gate: Mutex<()>,
    handles: Vec<JoinHandle<()>>,
    threads: usize,
}

impl ThreadPool {
    /// Creates a pool that uses `threads` OS threads in total: the
    /// submitting thread participates in every job, so `threads - 1`
    /// workers are spawned. `threads == 1` is the serial degenerate case
    /// (no workers, no locking, chunks run inline in order).
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "a pool needs at least one thread");
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                epoch: 0,
                job: None,
                shutdown: false,
                panic: None,
            }),
            job_ready: Condvar::new(),
            job_done: Condvar::new(),
        });
        let handles = (1..threads)
            .map(|worker| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ofw-pool-{worker}"))
                    .spawn(move || worker_loop(&shared, worker))
                    .expect("spawn pool worker")
            })
            .collect();
        ThreadPool {
            shared,
            submit_gate: Mutex::new(()),
            handles,
            threads,
        }
    }

    /// A pool sized to the machine (`available_parallelism`, at least 1).
    pub fn with_available_parallelism() -> Self {
        Self::new(available_threads())
    }

    /// Total threads participating in jobs (workers + submitter).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `task(i)` exactly once for every `i in 0..chunks` across the
    /// pool and returns the results in chunk order. Blocks until the
    /// whole job is done; panics in chunks are re-raised here. Called
    /// from inside a running chunk, it runs the job inline.
    pub fn run<R: Send>(&self, chunks: usize, task: &(dyn Fn(usize) -> R + Sync)) -> Vec<R> {
        if chunks == 0 {
            return Vec::new();
        }
        if self.handles.is_empty() || IN_CHUNK.get() {
            // Serial fast path, and nested jobs: no queues, no locks,
            // index order.
            return (0..chunks).map(task).collect();
        }
        let _gate = lock(&self.submit_gate);

        // Results are pushed in completion order and sorted back into
        // chunk order below — the determinism contract.
        let results: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(chunks));
        let capture = |idx: usize| {
            let r = task(idx);
            lock(&results).push((idx, r));
        };
        let capture_ref: &(dyn Fn(usize) + Sync) = &capture;

        // Block-partition the chunk indices over all threads.
        let mut queues: Vec<Mutex<VecDeque<usize>>> = (0..self.threads)
            .map(|_| Mutex::new(VecDeque::new()))
            .collect();
        for (q, range) in queues.iter_mut().zip(chunk_ranges(chunks, self.threads)) {
            *q.get_mut().unwrap() = range.collect();
        }
        let job = Job {
            // SAFETY: lifetime erasure only; `run` blocks on
            // `remaining == 0` before returning, and chunks never run
            // after that (see `work`).
            task: TaskRef(unsafe { erase_task(capture_ref) }),
            queues: Arc::new(queues),
            remaining: Arc::new(AtomicUsize::new(chunks)),
        };

        {
            let mut st = lock(&self.shared.state);
            st.epoch += 1;
            st.job = Some(job.clone());
            self.shared.job_ready.notify_all();
        }

        // The submitter is worker 0.
        work(&self.shared, 0, &job);

        let mut st = lock(&self.shared.state);
        while job.remaining.load(Ordering::Acquire) != 0 {
            st = self
                .shared
                .job_done
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        st.job = None;
        let panicked = st.panic.take();
        drop(st);
        if let Some(payload) = panicked {
            panic::resume_unwind(payload);
        }

        let mut out = results.into_inner().unwrap();
        out.sort_unstable_by_key(|&(idx, _)| idx);
        debug_assert_eq!(out.len(), chunks);
        out.into_iter().map(|(_, r)| r).collect()
    }
}

impl OrderedExecutor for ThreadPool {
    fn run_ordered<R: Send>(&self, n: usize, f: &(dyn Fn(usize) -> R + Sync)) -> Vec<R> {
        self.run(n, f)
    }

    fn label(&self) -> &'static str {
        "pool"
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut st = lock(&self.shared.state);
            st.shutdown = true;
            self.shared.job_ready.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// `available_parallelism` with a floor of 1 (cgroup-aware on Linux).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

fn worker_loop(shared: &Shared, me: usize) {
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut st = lock(&shared.state);
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen_epoch {
                    if let Some(job) = st.job.clone() {
                        seen_epoch = st.epoch;
                        break job;
                    }
                }
                st = shared
                    .job_ready
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        work(shared, me, &job);
    }
}

/// Drains chunks: own queue front first, then steal from the back of the
/// other queues (scanning from the next worker up, deterministically).
/// Returns when no queue has work left.
fn work(shared: &Shared, me: usize, job: &Job) {
    let n = job.queues.len();
    loop {
        let mut chunk = lock(&job.queues[me]).pop_front();
        if chunk.is_none() {
            for distance in 1..n {
                let victim = (me + distance) % n;
                chunk = lock(&job.queues[victim]).pop_back();
                if chunk.is_some() {
                    break;
                }
            }
        }
        let Some(idx) = chunk else { return };
        // SAFETY: `remaining > 0` (this chunk is unfinished), so the
        // submitting `run` is still blocked and the closure is alive.
        let task = unsafe { &*job.task.0 };
        IN_CHUNK.set(true);
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| task(idx)));
        IN_CHUNK.set(false);
        if let Err(payload) = outcome {
            let mut st = lock(&shared.state);
            if st.panic.is_none() {
                st.panic = Some(payload);
            }
        }
        if job.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last chunk: wake the submitter. Lock to pair with its
            // check-then-wait, otherwise the notify could slip between.
            let _st = lock(&shared.state);
            shared.job_done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

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
        // Uneven chunk durations force stealing paths.
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

    #[test]
    fn chunk_panics_propagate_to_the_submitter() {
        let pool = ThreadPool::new(4);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(16, &|i| {
                assert!(i != 9, "chunk nine exploded");
            });
        }));
        assert!(caught.is_err());
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
        let reference: Vec<u64> = (0..200u64).map(|i| i.wrapping_mul(0x9e3779b9)).collect();
        for threads in [1, 2, 3, 5, 8] {
            let pool = ThreadPool::new(threads);
            let out = pool.run(200, &|i| (i as u64).wrapping_mul(0x9e3779b9));
            assert_eq!(out, reference, "threads={threads}");
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

    #[test]
    fn available_threads_is_positive() {
        assert!(available_threads() >= 1);
        assert!(ThreadPool::with_available_parallelism().threads() >= 1);
    }
}
