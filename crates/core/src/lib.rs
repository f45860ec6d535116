//! # ofw-core — the paper's contribution
//!
//! An implementation of *Neumann & Moerkotte, "An Efficient Framework for
//! Order Optimization"* (ICDE 2004), extended to the combined ordering +
//! grouping framework of the companion paper (*"A Combined Framework for
//! Grouping and Order Optimization"*, VLDB 2004). The framework answers
//! the questions a plan generator asks millions of times:
//!
//! 1. `contains` — does the output of a subplan satisfy a required logical
//!    ordering, grouping or head/tail pair ([`OrderOracle::satisfies`])?
//! 2. `inferNewLogicalOrderings` — how does the set of logical properties
//!    change when an operator introduces functional dependencies?
//!
//! Both are answered in **O(1)** after a one-time preparation step, and a
//! plan node's entire order/grouping annotation is a 4-byte [`State`].
//! Inside preparation an ordering, a grouping (an unordered attribute
//! set, as produced by hash aggregation) or a head/tail pair is one
//! `(head_len, attrs)` view, so grouping-aware plans cost nothing extra.
//!
//! ## Pipeline (paper Fig. 3)
//!
//! ```text
//! 1. input: interesting orders (produced O_P / tested O_T) + FD sets  [spec]
//! 2. construct the NFSM                                               [nfsm]
//!    (b) filter functional dependencies                               [prune]
//!    (d) prune/merge artificial nodes                                 [prune]
//! 3. convert the NFSM into a DFSM (powerset construction)             [dfsm]
//! 4. precompute contains matrix + transition table                    [dfsm]
//! ```
//!
//! The public entry point is [`OrderingFramework::prepare`], which runs the
//! whole pipeline and exposes the O(1) ADT of §5.6 through the
//! [`OrderOracle`] trait defined here.
//!
//! ## This crate as an oracle arm
//!
//! `OrderingFramework` is one of three interchangeable implementations
//! of [`OrderOracle`], the ADT the plan generator programs against (the
//! others live in `ofw-simmen` and `ofw-plangen`). Its arm invariants:
//!
//! * **immutable after preparation** — probes contend on nothing, so
//!   planners on several threads share it without locks;
//! * **sequential FD semantics** — `infer` applies an operator's FD set
//!   exactly once, at the operator (§5.6); enforcers must *replay* the
//!   FD sets holding below them onto freshly produced states;
//! * **exact agreement with the ground truth** — every `satisfies`
//!   answer, on every property kind, matches [`ExplicitOrderings`] after
//!   the same operator sequence
//!   (property-tested); derivations all three arms deliberately refuse
//!   (see `derive`) are refused here too.
//!
//! ## Example (the paper's running example, §5)
//!
//! ```
//! use ofw_core::{Fd, InputSpec, OrderOracle, Ordering, OrderingFramework, PruneConfig};
//! use ofw_catalog::AttrId;
//!
//! let [a, b, c, d] = [AttrId(0), AttrId(1), AttrId(2), AttrId(3)];
//! let mut spec = InputSpec::new();
//! spec.add_produced(Ordering::new(vec![b]));
//! spec.add_produced(Ordering::new(vec![a, b]));
//! spec.add_tested(Ordering::new(vec![a, b, c]));
//! let f_bc = spec.add_fd_set(vec![Fd::functional(&[b], c)]);
//! let _f_bd = spec.add_fd_set(vec![Fd::functional(&[b], d)]);
//!
//! let fw = OrderingFramework::prepare(&spec, PruneConfig::default()).unwrap();
//! let ab = fw.resolve(&Ordering::new(vec![a, b]).into()).unwrap();
//! let abc = fw.resolve(&Ordering::new(vec![a, b, c]).into()).unwrap();
//!
//! // sort by (a,b):
//! let s = fw.produce(ab);
//! assert!(fw.satisfies(s, ab));
//! assert!(!fw.satisfies(s, abc));
//! // apply an operator inducing b -> c:
//! let s = fw.infer(s, f_bc);
//! assert!(fw.satisfies(s, abc)); // now satisfied, via one table lookup
//! ```
//!
//! ## Groupings (the VLDB'04 extension)
//!
//! ```
//! use ofw_core::{Fd, Grouping, InputSpec, OrderOracle, Ordering, OrderingFramework, PruneConfig};
//! use ofw_catalog::AttrId;
//!
//! let [a, b, c] = [AttrId(0), AttrId(1), AttrId(2)];
//! let mut spec = InputSpec::new();
//! spec.add_produced(Ordering::new(vec![a, b]));     // sort can produce
//! spec.add_produced(Grouping::new(vec![a, b]));     // hash-agg can produce
//! spec.add_tested(Grouping::new(vec![a, b, c]));
//! let f_bc = spec.add_fd_set(vec![Fd::functional(&[b], c)]);
//!
//! let fw = OrderingFramework::prepare(&spec, PruneConfig::default()).unwrap();
//! let g_ab = fw.resolve(&Grouping::new(vec![a, b]).into()).unwrap();
//! let g_abc = fw.resolve(&Grouping::new(vec![a, b, c]).into()).unwrap();
//!
//! // A sorted stream is grouped by every prefix set…
//! let s = fw.produce(fw.resolve(&Ordering::new(vec![a, b]).into()).unwrap());
//! assert!(fw.satisfies(s, g_ab));
//! // …a hash-grouped stream satisfies its grouping but no ordering…
//! let s = fw.produce(g_ab);
//! assert!(fw.satisfies(s, g_ab));
//! // …and FDs extend groupings by set insertion, still in O(1).
//! assert!(fw.satisfies(fw.infer(s, f_bc), g_abc));
//! ```
//!
//! ## Head/tail pairs (the property lattice's middle rung)
//!
//! The third property kind — `{head}(tail)`, grouped by the head set and
//! sorted by the tail *within* each group — sits between orderings and
//! groupings: `Ordering (a,b) ⊑ HeadTail {a}(b) ⊑ Grouping {a}` (see
//! `ARCHITECTURE.md`). It is what makes grouped-but-unsorted streams
//! (hash-aggregate output) resumable toward a full ordering with a
//! *partial* sort, and its probe is the same one-bit `contains` lookup:
//!
//! ```
//! use ofw_core::{
//!     Fd, Grouping, HeadTail, InputSpec, OrderOracle, Ordering, OrderingFramework, PruneConfig,
//! };
//! use ofw_catalog::AttrId;
//!
//! let [a, b] = [AttrId(0), AttrId(1)];
//! let mut spec = InputSpec::new();
//! spec.add_produced(Ordering::new(vec![a, b]));
//! spec.add_produced(Grouping::new(vec![a]));        // hash-agg output
//! let pair = HeadTail::new(Grouping::new(vec![a]), Ordering::new(vec![b]));
//! spec.add_tested(pair.clone());                    // partial sort probes it
//! let f_ab = spec.add_fd_set(vec![Fd::functional(&[a], b)]);
//!
//! let fw = OrderingFramework::prepare(&spec, PruneConfig::default()).unwrap();
//! let h = fw.resolve(&pair.into()).unwrap();
//!
//! // A sorted stream satisfies every decomposition of its prefixes…
//! let sorted = fw.produce(fw.resolve(&Ordering::new(vec![a, b]).into()).unwrap());
//! assert!(fw.satisfies(sorted, h));
//! // …a merely grouped stream does not…
//! let grouped = fw.produce(fw.resolve(&Grouping::new(vec![a]).into()).unwrap());
//! assert!(!fw.satisfies(grouped, h));
//! // …until a→b holds: b is constant inside every a-group, so the
//! // stream is trivially sorted by (b) within groups — one lookup.
//! assert!(fw.satisfies(fw.infer(grouped, f_ab), h));
//! ```

#![forbid(unsafe_code)]

pub mod derive;
pub mod dfsm;
pub mod eqclass;
pub mod explicit;
pub mod fd;
pub mod filter;
pub mod framework;
pub mod intern;
pub mod nfsm;
pub mod oracle;
pub mod ordering;
pub mod property;
pub mod prune;
pub mod spec;

pub use dfsm::Dfsm;
pub use eqclass::EqClasses;
pub use explicit::ExplicitOrderings;
pub use fd::{Fd, FdSet, FdSetId};
pub use framework::{
    OrderHandle, OrderingFramework, PrepStats, PrepareError, PrepareOptions, State,
};
pub use intern::PreparedCache;
pub use nfsm::Nfsm;
pub use oracle::OrderOracle;
pub use ordering::Ordering;
pub use property::{Grouping, HeadTail, LogicalProperty};
pub use prune::PruneConfig;
pub use spec::InputSpec;
