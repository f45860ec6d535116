//! The order-optimization interface the plan generator programs against.
//!
//! This is the ADT of the paper's §2 (`contains`,
//! `inferNewLogicalOrderings`, constructors), extended with the grouping
//! operations of the combined VLDB'04 framework, plus the
//! plan-domination test of §7 and memory accounting for Fig. 14. The
//! DFSM framework, the Simmen baseline, and the naive explicit-set
//! oracle all implement it, so the DP code is shared verbatim between
//! every experiment arm.
//!
//! All three implementations are `Sync` (statically asserted below), so
//! all three run unchanged under the parallel DP driver. The DFSM
//! framework is immutable after preparation — parallel probes contend on
//! nothing, the property the paper's design buys. The baseline and the
//! explicit oracle memoize behind a mutex and pay for the sharing,
//! faithfully reproducing their cost profile on multicore.

use ofw_common::FxHashMap;
use ofw_core::fd::{FdSet, FdSetId};
use ofw_core::ordering::Ordering;
use ofw_core::property::{Grouping, HeadTail, LogicalProperty};
use ofw_core::spec::InputSpec;
use ofw_core::ExplicitOrderings;
use std::fmt::Debug;
use std::hash::Hash;
use std::sync::Mutex;

/// Preparation-side counters an oracle can report. Only the DFSM
/// framework has a non-trivial preparation phase; the other arms return
/// the default (all zero), which the stats plumbing passes through
/// unchanged.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PrepCounters {
    /// NFSM nodes after pruning (0 when the arm has no NFSM).
    pub nfsm_states: usize,
    /// Reachable DFSM states (0 when the arm has no DFSM).
    pub dfsm_states: usize,
    /// Preparation-cache hits that served this oracle (0 or 1 for a
    /// single prepared framework).
    pub interned_hits: u64,
}

/// Order/grouping-optimization ADT as seen by the plan generator.
pub trait OrderOracle {
    /// Per-plan-node order annotation.
    type State: Copy + Eq + Hash + Debug;
    /// Pre-resolved handle of an interesting property.
    type Key: Copy + Debug;

    /// Resolves an ordering to a handle once per query (cold path).
    fn resolve(&self, o: &Ordering) -> Option<Self::Key>;

    /// Resolves a grouping to a handle once per query (cold path).
    fn resolve_grouping(&self, g: &Grouping) -> Option<Self::Key>;

    /// Resolves a head/tail pair to a handle once per query (cold path).
    fn resolve_head_tail(&self, h: &HeadTail) -> Option<Self::Key>;

    /// Whether a sort/scan/hash operator may produce this property
    /// (`O_P`).
    fn is_producible(&self, k: Self::Key) -> bool;

    /// Constructor: unordered stream.
    fn produce_empty(&self) -> Self::State;

    /// Constructor: stream physically ordered by the order behind `k`
    /// (must be producible).
    fn produce(&self, k: Self::Key) -> Self::State;

    /// Constructor: stream physically *grouped* by the grouping behind
    /// `k` — hash-aggregation or hash-partition output (must be
    /// producible).
    fn produce_grouping(&self, k: Self::Key) -> Self::State;

    /// `inferNewLogicalOrderings`: one operator's FD set is applied.
    fn infer(&self, s: Self::State, f: FdSetId) -> Self::State;

    /// `contains`: does a stream in state `s` satisfy order `k`?
    fn satisfies(&self, s: Self::State, k: Self::Key) -> bool;

    /// `contains` for groupings: does a stream in state `s` satisfy the
    /// grouping behind `k`?
    fn satisfies_grouping(&self, s: Self::State, k: Self::Key) -> bool;

    /// `contains` for head/tail pairs: is a stream in state `s` grouped
    /// by the pair's head and sorted by its tail within each group —
    /// the partial-sort admission and refinement probe?
    fn satisfies_head_tail(&self, s: Self::State, k: Self::Key) -> bool;

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

    /// Preparation counters. Defaults to all-zero for arms without a
    /// preparation phase.
    fn prep_counters(&self) -> PrepCounters {
        PrepCounters::default()
    }

    /// Display name for experiment tables.
    fn name(&self) -> &'static str;
}

impl OrderOracle for ofw_core::OrderingFramework {
    type State = ofw_core::State;
    type Key = ofw_core::OrderHandle;

    fn resolve(&self, o: &Ordering) -> Option<Self::Key> {
        self.handle(o)
    }

    fn resolve_grouping(&self, g: &Grouping) -> Option<Self::Key> {
        self.handle_grouping(g)
    }

    fn resolve_head_tail(&self, h: &HeadTail) -> Option<Self::Key> {
        self.handle_head_tail(h)
    }

    fn is_producible(&self, k: Self::Key) -> bool {
        ofw_core::OrderingFramework::is_producible(self, k)
    }

    fn produce_empty(&self) -> Self::State {
        ofw_core::OrderingFramework::produce_empty(self)
    }

    fn produce(&self, k: Self::Key) -> Self::State {
        ofw_core::OrderingFramework::produce(self, k)
    }

    fn produce_grouping(&self, k: Self::Key) -> Self::State {
        ofw_core::OrderingFramework::produce_grouping(self, k)
    }

    #[inline]
    fn infer(&self, s: Self::State, f: FdSetId) -> Self::State {
        ofw_core::OrderingFramework::infer(self, s, f)
    }

    #[inline]
    fn satisfies(&self, s: Self::State, k: Self::Key) -> bool {
        ofw_core::OrderingFramework::satisfies(self, s, k)
    }

    #[inline]
    fn satisfies_grouping(&self, s: Self::State, k: Self::Key) -> bool {
        ofw_core::OrderingFramework::satisfies_grouping(self, s, k)
    }

    #[inline]
    fn satisfies_head_tail(&self, s: Self::State, k: Self::Key) -> bool {
        ofw_core::OrderingFramework::satisfies_head_tail(self, s, k)
    }

    #[inline]
    fn dominates(&self, a: Self::State, b: Self::State) -> bool {
        ofw_core::OrderingFramework::dominates(self, a, b)
    }

    fn memory_bytes(&self, plan_nodes: usize) -> usize {
        ofw_core::OrderingFramework::memory_bytes(self, plan_nodes)
    }

    fn prep_counters(&self) -> PrepCounters {
        let stats = self.stats();
        PrepCounters {
            nfsm_states: stats.nfsm_nodes,
            dfsm_states: stats.dfsm_states,
            interned_hits: stats.interned_hit as u64,
        }
    }

    fn name(&self) -> &'static str {
        "nfsm/dfsm (ours)"
    }
}

impl OrderOracle for ofw_simmen::SimmenFramework {
    type State = ofw_simmen::SimmenState;
    type Key = ofw_simmen::SimmenOrderKey;

    fn resolve(&self, o: &Ordering) -> Option<Self::Key> {
        self.key(o)
    }

    fn resolve_grouping(&self, g: &Grouping) -> Option<Self::Key> {
        self.grouping_key(g)
    }

    fn resolve_head_tail(&self, h: &HeadTail) -> Option<Self::Key> {
        self.head_tail_key(h)
    }

    fn is_producible(&self, k: Self::Key) -> bool {
        ofw_simmen::SimmenFramework::is_producible(self, k)
    }

    fn produce_empty(&self) -> Self::State {
        ofw_simmen::SimmenFramework::produce_empty(self)
    }

    fn produce(&self, k: Self::Key) -> Self::State {
        ofw_simmen::SimmenFramework::produce(self, k)
    }

    fn produce_grouping(&self, k: Self::Key) -> Self::State {
        ofw_simmen::SimmenFramework::produce(self, k)
    }

    #[inline]
    fn infer(&self, s: Self::State, f: FdSetId) -> Self::State {
        ofw_simmen::SimmenFramework::infer(self, s, f)
    }

    #[inline]
    fn satisfies(&self, s: Self::State, k: Self::Key) -> bool {
        ofw_simmen::SimmenFramework::satisfies(self, s, k)
    }

    #[inline]
    fn satisfies_grouping(&self, s: Self::State, k: Self::Key) -> bool {
        ofw_simmen::SimmenFramework::satisfies(self, s, k)
    }

    #[inline]
    fn satisfies_head_tail(&self, s: Self::State, k: Self::Key) -> bool {
        ofw_simmen::SimmenFramework::satisfies(self, s, k)
    }

    #[inline]
    fn dominates(&self, a: Self::State, b: Self::State) -> bool {
        ofw_simmen::SimmenFramework::dominates(self, a, b)
    }

    fn memory_bytes(&self, plan_nodes: usize) -> usize {
        ofw_simmen::SimmenFramework::memory_bytes(self, plan_nodes)
    }

    fn name(&self) -> &'static str {
        "simmen"
    }
}

/// Per-plan-node state under the explicit-set oracle: a handle into the
/// interned set store (the sets themselves are Ω(2^n)-sized — that is
/// the point).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExplicitStateId(pub u32);

impl Debug for ExplicitStateId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Key of an interesting property under the explicit oracle.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ExplicitKey(u32);

/// Canonical form of an explicit set (for interning).
type Canon = (Vec<Ordering>, Vec<Grouping>, Vec<HeadTail>);

struct ExplicitStore {
    states: Vec<ExplicitOrderings>,
    canon: FxHashMap<Canon, u32>,
    infer_cache: FxHashMap<(u32, FdSetId), u32>,
}

/// The §2 "intuitive approach" wrapped in the plan-generation interface:
/// every state is a fully materialized, closed set of orderings and
/// groupings, and `infer` recomputes the closure. Unusable at scale (the
/// paper's motivation) but the perfect third arm for cross-checking the
/// DFSM framework *inside* the plan generator — the integration tests
/// assert all arms agree on the optimal plan cost. The state store sits
/// behind a mutex so the oracle is `Sync`; interning is
/// content-addressed, so which thread interns a set first never changes
/// what any state *means*.
pub struct ExplicitOracle {
    fd_sets: Vec<FdSet>,
    props: Vec<LogicalProperty>,
    keys: FxHashMap<LogicalProperty, ExplicitKey>,
    producible: Vec<bool>,
    store: Mutex<ExplicitStore>,
}

impl ExplicitOracle {
    /// Preparation: record the interesting properties; states are built
    /// lazily.
    pub fn prepare(spec: &InputSpec) -> Self {
        let mut props: Vec<LogicalProperty> = Vec::new();
        let mut keys = FxHashMap::default();
        let mut producible = Vec::new();
        for (p, prod) in spec.interesting_closure() {
            keys.insert(p.clone(), ExplicitKey(props.len() as u32));
            props.push(p);
            producible.push(prod);
        }
        ExplicitOracle {
            fd_sets: spec.fd_sets().to_vec(),
            props,
            keys,
            producible,
            store: Mutex::new(ExplicitStore {
                states: Vec::new(),
                canon: FxHashMap::default(),
                infer_cache: FxHashMap::default(),
            }),
        }
    }

    /// Content-addressed interning under an already-held store lock.
    fn intern_locked(store: &mut ExplicitStore, e: ExplicitOrderings) -> ExplicitStateId {
        let mut orderings: Vec<Ordering> = e.iter().cloned().collect();
        orderings.sort();
        let mut groupings: Vec<Grouping> = e.iter_groupings().cloned().collect();
        groupings.sort();
        let mut pairs: Vec<HeadTail> = e.iter_head_tails().cloned().collect();
        pairs.sort();
        let canon = (orderings, groupings, pairs);
        if let Some(&id) = store.canon.get(&canon) {
            return ExplicitStateId(id);
        }
        let id = store.states.len() as u32;
        store.states.push(e);
        store.canon.insert(canon, id);
        ExplicitStateId(id)
    }

    fn intern(&self, e: ExplicitOrderings) -> ExplicitStateId {
        Self::intern_locked(&mut self.store.lock().unwrap(), e)
    }
}

impl OrderOracle for ExplicitOracle {
    type State = ExplicitStateId;
    type Key = ExplicitKey;

    fn resolve(&self, o: &Ordering) -> Option<Self::Key> {
        self.keys
            .get(&LogicalProperty::Ordering(o.clone()))
            .copied()
    }

    fn resolve_grouping(&self, g: &Grouping) -> Option<Self::Key> {
        self.keys
            .get(&LogicalProperty::Grouping(g.clone()))
            .copied()
    }

    fn resolve_head_tail(&self, h: &HeadTail) -> Option<Self::Key> {
        self.keys
            .get(&LogicalProperty::HeadTail(h.clone()))
            .copied()
    }

    fn is_producible(&self, k: Self::Key) -> bool {
        self.producible[k.0 as usize]
    }

    fn produce_empty(&self) -> Self::State {
        self.intern(ExplicitOrderings::unordered())
    }

    fn produce(&self, k: Self::Key) -> Self::State {
        let e = match &self.props[k.0 as usize] {
            LogicalProperty::Ordering(o) => ExplicitOrderings::from_physical(o),
            LogicalProperty::Grouping(g) => ExplicitOrderings::from_grouping(g),
            LogicalProperty::HeadTail(h) => ExplicitOrderings::from_head_tail(h),
        };
        self.intern(e)
    }

    fn produce_grouping(&self, k: Self::Key) -> Self::State {
        self.produce(k)
    }

    fn infer(&self, s: Self::State, f: FdSetId) -> Self::State {
        let mut store = self.store.lock().unwrap();
        if let Some(&hit) = store.infer_cache.get(&(s.0, f)) {
            return ExplicitStateId(hit);
        }
        let mut e = store.states[s.0 as usize].clone();
        e.infer(&self.fd_sets[f.index()]);
        let id = Self::intern_locked(&mut store, e);
        store.infer_cache.insert((s.0, f), id.0);
        id
    }

    fn satisfies(&self, s: Self::State, k: Self::Key) -> bool {
        let store = self.store.lock().unwrap();
        let e = &store.states[s.0 as usize];
        match &self.props[k.0 as usize] {
            LogicalProperty::Ordering(o) => e.contains(o),
            LogicalProperty::Grouping(g) => e.contains_grouping(g),
            LogicalProperty::HeadTail(h) => e.contains_head_tail(h),
        }
    }

    fn satisfies_grouping(&self, s: Self::State, k: Self::Key) -> bool {
        self.satisfies(s, k)
    }

    fn satisfies_head_tail(&self, s: Self::State, k: Self::Key) -> bool {
        self.satisfies(s, k)
    }

    fn dominates(&self, a: Self::State, b: Self::State) -> bool {
        if a == b {
            return true;
        }
        let store = self.store.lock().unwrap();
        let (ea, eb) = (&store.states[a.0 as usize], &store.states[b.0 as usize]);
        // Set inclusion is future-proof: derivation is monotone in the
        // materialized sets.
        eb.iter().all(|o| ea.contains(o))
            && eb.iter_groupings().all(|g| ea.contains_grouping(g))
            && eb.iter_head_tails().all(|h| ea.contains_head_tail(h))
    }

    fn memory_bytes(&self, plan_nodes: usize) -> usize {
        let store = self.store.lock().unwrap();
        let set_bytes: usize = store
            .states
            .iter()
            .map(|e| {
                e.iter()
                    .map(|o| o.heap_bytes() + std::mem::size_of::<Ordering>())
                    .sum::<usize>()
                    + e.iter_groupings()
                        .map(|g| g.heap_bytes() + std::mem::size_of::<Grouping>())
                        .sum::<usize>()
                    + e.iter_head_tails()
                        .map(|h| h.heap_bytes() + std::mem::size_of::<HeadTail>())
                        .sum::<usize>()
            })
            .sum();
        plan_nodes * std::mem::size_of::<ExplicitStateId>() + set_bytes
    }

    fn name(&self) -> &'static str {
        "explicit set (oracle)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofw_catalog::AttrId;
    use ofw_core::fd::Fd;
    use ofw_core::{InputSpec, OrderingFramework, PruneConfig};
    use ofw_simmen::SimmenFramework;

    const A: AttrId = AttrId(0);
    const B: AttrId = AttrId(1);
    const C: AttrId = AttrId(2);

    fn o(ids: &[AttrId]) -> Ordering {
        Ordering::new(ids.to_vec())
    }

    fn g(ids: &[AttrId]) -> Grouping {
        Grouping::new(ids.to_vec())
    }

    fn spec() -> InputSpec {
        let mut s = InputSpec::new();
        s.add_produced(o(&[A]));
        s.add_produced(o(&[A, B]));
        s.add_produced(g(&[A, B]));
        s.add_fd_set(vec![Fd::functional(&[B], C)]);
        s.add_fd_set(vec![Fd::equation(A, B)]);
        s
    }

    /// All oracles must agree on satisfied interesting properties for
    /// the same call sequence (generic over the trait).
    fn probe<O: OrderOracle>(oracle: &O, f_eq: FdSetId) -> Vec<bool> {
        let k_a = oracle.resolve(&o(&[A])).unwrap();
        let k_ab = oracle.resolve(&o(&[A, B])).unwrap();
        let kg_ab = oracle.resolve_grouping(&g(&[A, B])).unwrap();
        let s0 = oracle.produce(k_a);
        let s1 = oracle.infer(s0, f_eq);
        let sg = oracle.produce_grouping(kg_ab);
        vec![
            oracle.satisfies(s0, k_a),
            oracle.satisfies(s0, k_ab),
            oracle.satisfies(s1, k_a),
            oracle.satisfies(s1, k_ab),
            oracle.satisfies_grouping(s1, kg_ab),
            oracle.satisfies_grouping(sg, kg_ab),
            oracle.satisfies(sg, k_a),
        ]
    }

    #[test]
    fn oracles_agree_through_the_trait() {
        let spec = spec();
        let ours = OrderingFramework::prepare(&spec, PruneConfig::default()).unwrap();
        let simmen = SimmenFramework::prepare(&spec);
        let explicit = ExplicitOracle::prepare(&spec);
        let f_eq = FdSetId(1);
        let expected = vec![true, false, true, true, true, true, false];
        assert_eq!(probe(&ours, f_eq), expected, "dfsm");
        assert_eq!(probe(&simmen, f_eq), expected, "simmen");
        assert_eq!(probe(&explicit, f_eq), expected, "explicit");
    }

    #[test]
    fn explicit_oracle_interns_states() {
        let spec = spec();
        let ex = ExplicitOracle::prepare(&spec);
        let k = ex.resolve(&o(&[A])).unwrap();
        let s1 = ex.produce(k);
        let s2 = ex.produce(k);
        assert_eq!(s1, s2, "equal sets share a state id");
        let f = FdSetId(0);
        assert_eq!(ex.infer(s1, f), ex.infer(s2, f));
        assert!(ex.memory_bytes(10) > 0);
    }

    /// The parallel driver shares one oracle across all workers; every
    /// arm must be `Send + Sync` (states/keys ride inside plan nodes
    /// between threads, so they must be too). A compile-time guarantee —
    /// if an oracle regresses to non-thread-safe interior mutability,
    /// this stops building.
    #[test]
    fn all_oracles_are_send_and_sync() {
        fn assert_thread_safe<T: Send + Sync>() {}
        assert_thread_safe::<ofw_core::OrderingFramework>();
        assert_thread_safe::<ofw_simmen::SimmenFramework>();
        assert_thread_safe::<ExplicitOracle>();
        assert_thread_safe::<ofw_core::State>();
        assert_thread_safe::<ofw_simmen::SimmenState>();
        assert_thread_safe::<ExplicitStateId>();
        assert_thread_safe::<ofw_core::OrderHandle>();
        assert_thread_safe::<ofw_simmen::SimmenOrderKey>();
        assert_thread_safe::<ExplicitKey>();
    }

    #[test]
    fn names_differ() {
        let spec = spec();
        let ours = OrderingFramework::prepare(&spec, PruneConfig::default()).unwrap();
        let simmen = SimmenFramework::prepare(&spec);
        let explicit = ExplicitOracle::prepare(&spec);
        assert_ne!(OrderOracle::name(&ours), OrderOracle::name(&simmen));
        assert_ne!(OrderOracle::name(&ours), OrderOracle::name(&explicit));
    }
}
