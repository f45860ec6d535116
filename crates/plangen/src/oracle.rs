//! The explicit-set oracle: the §2 "intuitive approach" behind the
//! plan generator's [`OrderOracle`] seam, kept as the ground-truth arm
//! next to the DFSM framework (`ofw-core`) and the Simmen baseline
//! (`ofw-simmen`), which implement the same trait in their own crates.
//!
//! All three implementations are `Sync` (statically asserted below), so
//! one prepared oracle can serve planners on several threads. The DFSM
//! framework is immutable after preparation — concurrent probes contend
//! on nothing, the property the paper's design buys. The baseline and
//! the explicit oracle memoize behind a mutex and pay for the sharing.

use ofw_common::FxHashMap;
use ofw_core::fd::{FdSet, FdSetId};
use ofw_core::ordering::Ordering;
use ofw_core::property::{Grouping, HeadTail, LogicalProperty};
use ofw_core::spec::InputSpec;
use ofw_core::{ExplicitOrderings, OrderOracle};
use std::fmt::Debug;
use std::sync::Mutex;

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

    fn resolve(&self, p: &LogicalProperty) -> Option<Self::Key> {
        self.keys.get(p).copied()
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

    fn pair(head: &[AttrId], tail: &[AttrId]) -> HeadTail {
        HeadTail::new(g(head), o(tail))
    }

    /// Orderings, hash-producible groupings and a tested head/tail pair,
    /// under three FD sets: `b → c`, `a = b`, `a → b`.
    fn spec() -> InputSpec {
        let mut s = InputSpec::new();
        s.add_produced(o(&[A]));
        s.add_produced(o(&[A, B]));
        s.add_produced(g(&[A, B]));
        s.add_produced(g(&[A]));
        s.add_tested(pair(&[A], &[B]));
        s.add_fd_set(vec![Fd::functional(&[B], C)]);
        s.add_fd_set(vec![Fd::equation(A, B)]);
        s.add_fd_set(vec![Fd::functional(&[A], B)]);
        s
    }

    /// All oracles must agree on satisfied interesting properties for
    /// the same call sequence (generic over the trait): one `resolve`
    /// and one `satisfies` for every property kind, on sorted and
    /// hash-grouped start states.
    fn probe<O: OrderOracle>(oracle: &O) -> Vec<bool> {
        let (f_eq, f_ab) = (FdSetId(1), FdSetId(2));
        let key = |p: LogicalProperty| oracle.resolve(&p).unwrap();
        let k_a = key(o(&[A]).into());
        let k_ab = key(o(&[A, B]).into());
        let kg_ab = key(g(&[A, B]).into());
        let kg_a = key(g(&[A]).into());
        let kp = key(pair(&[A], &[B]).into());
        let s0 = oracle.produce(k_a);
        let s1 = oracle.infer(s0, f_eq);
        let s_ab = oracle.produce(k_ab);
        let sg = oracle.produce(kg_ab);
        let sga = oracle.produce(kg_a);
        let sga_ab = oracle.infer(sga, f_ab);
        vec![
            oracle.satisfies(s0, k_a),
            oracle.satisfies(s0, k_ab),
            oracle.satisfies(s1, k_a),
            oracle.satisfies(s1, k_ab),
            oracle.satisfies(s1, kg_ab),
            oracle.satisfies(sg, kg_ab),
            oracle.satisfies(sg, k_a),
            // Head/tail pair {a}(b): sorted by (a, b) holds it, sorted
            // by (a) alone does not until a = b makes it (a, b).
            oracle.satisfies(s_ab, kp),
            oracle.satisfies(s0, kp),
            oracle.satisfies(s1, kp),
            // Hash-grouped by {a}: its grouping, no ordering, and the
            // pair only once a → b makes b constant inside every group.
            oracle.satisfies(sga, kg_a),
            oracle.satisfies(sga, k_a),
            oracle.satisfies(sga, kp),
            oracle.satisfies(sga_ab, kp),
            oracle.satisfies(sga_ab, kg_ab),
        ]
    }

    #[test]
    fn oracles_agree_through_the_trait() {
        let spec = spec();
        let ours = OrderingFramework::prepare(&spec, PruneConfig::default()).unwrap();
        let simmen = SimmenFramework::prepare(&spec);
        let explicit = ExplicitOracle::prepare(&spec);
        let expected = vec![
            true, false, true, true, true, true, false, // orderings, {a,b}
            true, false, true, // the pair on sorted streams
            true, false, false, true, true, // hash-grouped by {a}
        ];
        assert_eq!(probe(&ours), expected, "dfsm");
        assert_eq!(probe(&simmen), expected, "simmen");
        assert_eq!(probe(&explicit), expected, "explicit");
    }

    #[test]
    fn explicit_oracle_interns_states() {
        let spec = spec();
        let ex = ExplicitOracle::prepare(&spec);
        let k = ex.resolve(&o(&[A]).into()).unwrap();
        let s1 = ex.produce(k);
        let s2 = ex.produce(k);
        assert_eq!(s1, s2, "equal sets share a state id");
        let f = FdSetId(0);
        assert_eq!(ex.infer(s1, f), ex.infer(s2, f));
        assert!(ex.memory_bytes(10) > 0);
    }

    /// One prepared oracle may serve planners on several threads; every
    /// arm must be `Send + Sync` (states/keys ride inside plan nodes, and
    /// a finished arena may cross threads too). A compile-time guarantee —
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
