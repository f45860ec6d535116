//! # ofw-parallel — the morsel executor's thread pool
//!
//! A dependency-free, deterministic work-stealing [`ThreadPool`]
//! ([`pool`]), the parallelism behind `ofw-exec`'s morsel-driven
//! executor.
//!
//! The pool implements `ofw_common::OrderedExecutor`: a job is a list
//! of independent chunks (an operator's morsels), the pool runs them on
//! per-worker queues with back-stealing, and the results come back in
//! chunk order — so query results are byte-identical at any thread
//! count. The plan generator does not use the pool: its DP is serial,
//! because sharding DP layers over it made planning slower, not faster
//! (see the README).

pub mod pool;

pub use pool::{available_threads, ThreadPool};
