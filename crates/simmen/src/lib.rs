//! # ofw-simmen — the Simmen et al. baseline
//!
//! The order-optimization component of *Simmen, Shekita & Malkemus,
//! "Fundamental Techniques for Order Optimization"* (SIGMOD 1996), as
//! described (and tuned) in §3 and §7 of the Neumann & Moerkotte paper.
//!
//! Representation per plan node: the physical ordering plus the set of
//! functional dependencies that hold for the stream — Ω(n) space.
//! `contains` runs the *reduction* algorithm on both the node's ordering
//! and the required ordering and then tests for a prefix — Ω(n) time.
//! `inferNewLogicalOrderings` appends the operator's FD set — Ω(n) when
//! the environment must be copied.
//!
//! We apply the same tuning the paper applied to make the comparison
//! fair (§7):
//!
//! * **reduction caching** — "the most important measure was to cache
//!   results in order to eliminate repeated calls to the very expensive
//!   reduce operation";
//! * **tailored memory management** — FD environments are immutable,
//!   interned and shared between plan nodes instead of deep-copied
//!   ("since Simmen's algorithm requires dynamic memory, we implemented
//!   a specially tailored memory management").
//!
//! The paper also observes that Simmen's rewrite system is **not
//! confluent**: reducing under `{a→b, ab→c}` yields different normal
//! forms depending on application order, so `contains` can answer
//! `false` where `true` is correct and "some orderings remain
//! unexploited". We reproduce that behaviour faithfully (see the
//! non-confluence test in [`reduce`]).
//!
//! ## This crate as an oracle arm
//!
//! [`SimmenFramework`] is the baseline arm of `ofw-core`'s
//! [`OrderOracle`](ofw_core::OrderOracle) ADT (the others: `ofw-core`'s
//! DFSM and `ofw-plangen`'s explicit-set oracle). Its arm invariants:
//!
//! * **persistent FD semantics** — a state carries its whole FD
//!   *environment*, so `contains` may exploit dependencies applied many
//!   operators ago (stronger per-probe information than the DFSM's
//!   sequential edge-at-the-operator semantics — and Ω(n) to use);
//! * **same optimal plans anyway** — on every workload in the suite the
//!   DP reaches the same optimum through this arm as through the other
//!   two (enforcer FD replay closes the semantic gap);
//! * **weak dominance** — two plans compare only with equal physical
//!   property and an environment superset, so this arm prunes fewer
//!   plans than DFSM state dominance; its Pareto sets widen with query
//!   size. That asymmetry *is* the paper's result, reproduced honestly;
//! * grouping and head/tail probes materialize cached per-(state,
//!   environment) closures — the Ω(n) price of a probe the DFSM answers
//!   with one precomputed bit.
//!
//! ## Example: `produce` / `infer` / `satisfies` on the baseline
//!
//! ```
//! use ofw_core::{Fd, InputSpec, OrderOracle, Ordering};
//! use ofw_simmen::SimmenFramework;
//! use ofw_catalog::AttrId;
//!
//! let [a, b] = [AttrId(0), AttrId(1)];
//! let mut spec = InputSpec::new();
//! spec.add_produced(Ordering::new(vec![a]));
//! spec.add_tested(Ordering::new(vec![a, b]));
//! let f_ab = spec.add_fd_set(vec![Fd::functional(&[a], b)]);
//!
//! // "Preparation" is trivial — that is Simmen's advantage; the cost
//! // shows up later, inside every probe.
//! let fw = SimmenFramework::prepare(&spec);
//! let k_a = fw.resolve(&Ordering::new(vec![a]).into()).unwrap();
//! let k_ab = fw.resolve(&Ordering::new(vec![a, b]).into()).unwrap();
//!
//! let s = fw.produce(k_a);              // stream sorted by (a)
//! assert!(!fw.satisfies(s, k_ab));      // reduce + prefix test
//! let s = fw.infer(s, f_ab);            // extend the FD environment
//! assert!(fw.satisfies(s, k_ab));       // (a,b) reduces to (a) under a→b
//! ```

pub mod env;
pub mod oracle;
pub mod reduce;

pub use env::{EnvStore, FdEnv, FdEnvId};
pub use oracle::SimmenOrderKey;
pub use oracle::{SimmenFramework, SimmenState};
