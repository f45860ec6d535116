//! # ofw — an efficient framework for order (and grouping) optimization
//!
//! A faithful, production-quality reproduction of
//! *Neumann & Moerkotte, "An Efficient Framework for Order Optimization"*
//! (ICDE 2004), extended to the combined ordering + grouping framework of
//! the VLDB 2004 companion paper. The crate tracks *interesting orders
//! and groupings* during query optimization with a precomputed
//! deterministic finite state machine, so that during plan generation
//!
//! * testing whether a subplan satisfies a required ordering, *grouping*
//!   or head/tail pair ([`OrderOracle::satisfies`](ofw_core::OrderOracle::satisfies)), and
//! * inferring new logical properties when an operator adds functional
//!   dependencies ([`OrderOracle::infer`](ofw_core::OrderOracle::infer))
//!
//! all run in **O(1)**, and every plan node carries only a 4-byte state.
//!
//! This facade re-exports the workspace crates:
//!
//! | module | contents |
//! |--------|----------|
//! | [`core`] | the paper's contribution: NFSM/DFSM order framework |
//! | [`simmen`] | the Simmen et al. (SIGMOD'96) baseline |
//! | [`catalog`] | schema/catalog substrate (incl. a TPC-H subset) |
//! | [`query`] | query graphs + interesting-order/FD extraction |
//! | [`plangen`] | bottom-up DP plan generator exercising both frameworks |
//! | [`parallel`] | deterministic scoped-thread pool, kept for the frozen benchmark's pooled runs |
//! | [`exec`] | morsel-driven vectorized executor + its tuple-at-a-time reference executor and reference plan |
//! | [`workload`] | random join-graph workloads, TPC-R Query 8, large topologies |
//! | [`obs`] | observability: phase spans, decision telemetry, trace export |
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs` for the paper's running example (§5) built
//! end to end — from interesting orders and functional dependencies to the
//! DFSM of Fig. 8 and the precomputed tables of Figs. 9–10.

#![forbid(unsafe_code)]

pub use ofw_catalog as catalog;
pub use ofw_common as common;
pub use ofw_core as core;
pub use ofw_exec as exec;
pub use ofw_obs as obs;
pub use ofw_parallel as parallel;
pub use ofw_plangen as plangen;
pub use ofw_query as query;
pub use ofw_simmen as simmen;
pub use ofw_workload as workload;
