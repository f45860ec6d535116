//! # ofw-parallel — a deterministic thread pool, kept for the benchmark
//!
//! A dependency-free, deterministic [`ThreadPool`] ([`pool`]). It
//! implements `ofw_common::OrderedExecutor`: a job's chunks run in one
//! `std::thread::scope` and the results come back in chunk order. No
//! crate runs work on it any more: the plan generator's DP is serial,
//! because sharding DP layers over a pool made planning slower, and so
//! is `ofw-exec`, whose pooled runs never beat its serial ones (see the
//! README). It stays only because the frozen pipeline benchmark builds a
//! pool and hands it to `ofw_exec::execute_plan` and `PlanGen::run_with`,
//! which ignore it; it goes with the next change to the benchmark.

#![forbid(unsafe_code)]

pub mod pool;

pub use pool::ThreadPool;
