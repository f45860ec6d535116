//! # ofw-parallel — parallel plan enumeration
//!
//! A dependency-free, deterministic work-stealing [`ThreadPool`]
//! ([`pool`]); handing it to `ofw_plangen::PlanGen::run_with` is the
//! parallel DP driver.
//!
//! The pool implements `ofw_common::OrderedExecutor`, the seam the
//! plan generator's DP is written against: a schedule batch is a list
//! of independent connected subsets, the pool runs them as chunks on
//! per-worker queues with back-stealing, and the batch barrier merges
//! the per-subset results in a fixed order. The final plan table —
//! operators, masks, costs, cardinalities, applied FDs, winner — is
//! **byte-identical to the serial driver at any thread count**, and so
//! are the per-node oracle state annotations whenever the oracle's
//! state handles are schedule-independent: unconditionally for the DFSM
//! framework (states precomputed before the DP), and for the memoizing
//! oracles (Simmen, explicit-set) once warmed by a serial run on the
//! same instance — cold, their content-addressed interners hand out
//! ids in schedule-dependent first-come order, so equal states can get
//! different numeric handles. See the determinism property tests in
//! `ofw-plangen` (which pin the warm-instance protocol).

pub mod pool;

pub use pool::{available_threads, ThreadPool};
