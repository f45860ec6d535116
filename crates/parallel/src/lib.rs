//! # ofw-parallel — the morsel executor's thread pool
//!
//! A dependency-free, deterministic [`ThreadPool`] ([`pool`]) behind
//! `ofw-exec`'s morsel-driven executor. It implements
//! `ofw_common::OrderedExecutor`: a job's chunks (an operator's morsels)
//! run in one `std::thread::scope` and the results come back in chunk
//! order, so query results are byte-identical at any thread count. The
//! plan generator does not use the pool: its DP is serial, because
//! sharding DP layers over a pool made planning slower (see the README).

#![forbid(unsafe_code)]

pub mod pool;

pub use pool::ThreadPool;
