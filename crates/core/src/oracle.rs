//! The order-optimization ADT the plan generator programs against.
//!
//! This is the ADT of the paper's §2 — `contains`,
//! `inferNewLogicalOrderings` and the constructors over an opaque
//! handle — plus the plan-domination test of §7 and memory accounting
//! for Fig. 14. Orderings, groupings (VLDB'04) and head/tail pairs are
//! columns of the same contains matrix, so every operation is
//! kind-agnostic: a [`LogicalProperty`] of any kind resolves to one key,
//! and one `satisfies` tests it. The DFSM framework
//! ([`OrderingFramework`](crate::OrderingFramework)), the Simmen baseline
//! and the naive explicit-set oracle all implement it, so the DP code is
//! shared verbatim between every experiment arm.

use crate::fd::FdSetId;
use crate::property::LogicalProperty;
use std::fmt::Debug;
use std::hash::Hash;

/// Order/grouping-optimization ADT as seen by the plan generator.
pub trait OrderOracle {
    /// Per-plan-node order annotation.
    type State: Copy + Eq + Hash + Debug;
    /// Pre-resolved handle of an interesting property.
    type Key: Copy + Debug;

    /// Resolves an interesting property of any kind to its handle, once
    /// per query (cold path). `None` if the property was never
    /// interesting, meaning no operator may ask about it.
    fn resolve(&self, p: &LogicalProperty) -> Option<Self::Key>;

    /// Whether a sort/scan/hash operator may produce this property
    /// (`O_P`).
    fn is_producible(&self, k: Self::Key) -> bool;

    /// Constructor: unordered stream.
    fn produce_empty(&self) -> Self::State;

    /// Constructor: stream physically shaped like the property behind
    /// `k` — sorted by an ordering (sort, ordered index scan) or grouped
    /// by a grouping (hash aggregation, hash grouping). Must be
    /// producible.
    fn produce(&self, k: Self::Key) -> Self::State;

    /// `inferNewLogicalOrderings`: one operator's FD set is applied.
    fn infer(&self, s: Self::State, f: FdSetId) -> Self::State;

    /// `contains`: does a stream in state `s` satisfy the property
    /// behind `k` — sorted by it, grouped by it, or (for a head/tail
    /// pair) grouped by its head and sorted by its tail within each
    /// group? Total over every key kind.
    fn satisfies(&self, s: Self::State, k: Self::Key) -> bool;

    /// Property-wise plan domination (`a` at least as ordered/grouped as
    /// `b`).
    ///
    /// Contract: domination is **reflexive** — `dominates(s, s)` must be
    /// `true` for every state. The DP's bucketed Pareto sets rely on it:
    /// two plans carrying the *same* state handle are compared on cost
    /// alone, without calling the oracle (counted as
    /// `dominance_memo_hits`, not probes). All three arms short-circuit
    /// `a == b` today; a new oracle must too.
    fn dominates(&self, a: Self::State, b: Self::State) -> bool;

    /// Bytes of order-annotation storage for `plan_nodes` plan nodes,
    /// including shared structures.
    fn memory_bytes(&self, plan_nodes: usize) -> usize;

    /// Display name for experiment tables.
    fn name(&self) -> &'static str;
}
