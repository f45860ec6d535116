//! # ofw-plangen — a bottom-up dynamic-programming plan generator
//!
//! The experimental vehicle of the paper's §7: "we implemented both our
//! algorithm and the algorithm proposed by Simmen et al. and integrated
//! them into a bottom-up plan generator based on [Lohman 1988]". This
//! crate is that generator: dynamic programming over connected
//! subgraphs, a physical algebra with order-sensitive operators (sort,
//! partial sort, merge join, ordered index scan) and order-agnostic
//! ones (heap scan, hash join, nested-loop join), a textbook cost
//! model, and Pareto pruning on (cost, property state, aggregation
//! class).
//!
//! ## The oracle seam
//!
//! Order optimization is accessed exclusively through the
//! [`OrderOracle`] trait — the paper's ADT, defined in `ofw-core` and
//! re-exported here — so every arm runs under *identical* call
//! patterns, the fairness requirement of §7. Three arms implement it:
//!
//! * [`ofw_core::OrderingFramework`] — the paper's DFSM, O(1) per call,
//!   immutable after preparation (lock-free under the parallel driver);
//! * [`ofw_simmen::SimmenFramework`] — the Ω(n) baseline, memoized;
//! * [`ExplicitOracle`] (this crate) — fully materialized property
//!   sets, the §2 "intuitive approach", kept as the ground-truth arm.
//!
//! The arm invariant the whole experiment rests on: **for the same
//! query, all three arms find equally cheap optimal plans** (asserted
//! across the test suite and by the pipeline benchmark's per-operation
//! verification), even though their
//! probe costs differ by orders of magnitude. The DP itself is
//! deterministic — byte-identical plan tables at any thread count.
//!
//! ## Example: the oracle calls a DP iteration makes
//!
//! ```
//! use ofw_core::{Fd, InputSpec, Ordering, OrderingFramework, PruneConfig};
//! use ofw_plangen::{ExplicitOracle, OrderOracle};
//! use ofw_catalog::AttrId;
//!
//! let [a, b] = [AttrId(0), AttrId(1)];
//! let mut spec = InputSpec::new();
//! spec.add_produced(Ordering::new(vec![a]));
//! spec.add_tested(Ordering::new(vec![a, b]));
//! let f_ab = spec.add_fd_set(vec![Fd::functional(&[a], b)]);
//!
//! // Any arm slots into the same generic code — here the DFSM and the
//! // explicit-set ground truth, answering identically.
//! fn probe<O: OrderOracle>(oracle: &O, f: ofw_core::FdSetId) -> (bool, bool) {
//!     let a = oracle.resolve(&Ordering::new(vec![AttrId(0)]).into()).unwrap();
//!     let ab = oracle.resolve(&Ordering::new(vec![AttrId(0), AttrId(1)]).into()).unwrap();
//!     let scan = oracle.produce(a);          // ordered index scan
//!     let joined = oracle.infer(scan, f);    // join applies a → b
//!     (oracle.satisfies(scan, ab), oracle.satisfies(joined, ab))
//! }
//! let dfsm = OrderingFramework::prepare(&spec, PruneConfig::default()).unwrap();
//! let truth = ExplicitOracle::prepare(&spec);
//! assert_eq!(probe(&dfsm, f_ab), (false, true));
//! assert_eq!(probe(&truth, f_ab), (false, true));
//! ```

pub mod cost;
pub mod dp;
pub mod exec;
pub mod explain;
pub mod oracle;
pub mod plan;

pub use dp::{PlanGen, PlanGenResult, PlanGenStats};
pub use exec::{execute, synthetic_data, try_execute, ExecError, MissingAttr, Table};
pub use explain::{Explain, ExplainNode};
pub use ofw_core::OrderOracle;
pub use oracle::{ExplicitKey, ExplicitOracle, ExplicitStateId};
pub use plan::{PlanArena, PlanId, PlanNode, PlanOp};
