//! The Simmen-style order-optimization framework, implementing the same
//! [`OrderOracle`] as `ofw_core::OrderingFramework` so the plan
//! generator can run with either implementation (§7's experiment setup).
//!
//! Interior mutability hides the caches behind `&self` methods — the
//! plan generator calls `infer`/`satisfies` through shared references
//! millions of times, and the caches are pure memoization. The
//! id-authoritative stores (the property interner and the FD-environment
//! store) and every memo over them sit behind one `Mutex`, taken once
//! per probe — the layout of the explicit-set arm. The oracle is `Sync`,
//! so planners on several threads can share it, paying for the sharing.
//!
//! Grouping support mirrors the combined framework: a plan node's
//! physical property may be a grouping (hash-aggregation output), and a
//! grouping requirement is tested by closing the node's implied grouping
//! set under its FD environment. The closure is computed
//! *incrementally*: an environment extends its derivation parent by one
//! FD set, so the closure for `(property, env)` starts from the cached
//! closure of `(property, parent)` and only chases consequences of the
//! added dependencies (semi-naive evaluation), instead of re-running the
//! full fixpoint per (state, environment) — still Ω(n) per fresh probe,
//! which is exactly the asymmetry the DFSM framework removes, but no
//! longer gratuitously so.

use crate::env::{EnvStore, FdEnvId};
use crate::reduce::reduce;
use ofw_common::{FxHashMap, FxHashSet, Interner};
use ofw_core::derive::apply_fd_grouping;
use ofw_core::fd::{Fd, FdSetId};
use ofw_core::ordering::Ordering;
use ofw_core::property::{Grouping, HeadTail, LogicalProperty};
use ofw_core::spec::InputSpec;
use ofw_core::{ExplicitOrderings, OrderOracle};
use std::sync::{Mutex, MutexGuard};

/// Per-plan-node annotation under Simmen's scheme: the physical property
/// (interned ordering or grouping) plus the FD environment. Conceptually
/// this is Ω(n)-sized state; the handles point into shared stores whose
/// bytes are charged to [`OrderOracle::memory_bytes`].
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct SimmenState {
    /// Interned physical property.
    pub phys: u32,
    /// Interned FD environment.
    pub env: FdEnvId,
}

impl std::fmt::Debug for SimmenState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}/{:?}", self.phys, self.env)
    }
}

/// Handle of an interesting property, pre-resolved once per query.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SimmenOrderKey(u32);

/// The stores every [`SimmenState`] id points into, and the memoization
/// maps over them.
struct Memo {
    props: Interner<LogicalProperty>,
    envs: EnvStore,
    /// Reduction cache: (interned ordering, environment) → reduced
    /// interned ordering — the paper's single most important tuning.
    reduce: FxHashMap<(u32, FdEnvId), u32>,
    /// Grouping cache: (interned property, environment) → set of
    /// groupings the stream satisfies under the environment.
    grouping: FxHashMap<(u32, FdEnvId), FxHashSet<Grouping>>,
    /// Environment-extension cache: (environment, FD set) → extended
    /// environment (fronting [`EnvStore::extend`]).
    extend: FxHashMap<(FdEnvId, FdSetId), FdEnvId>,
    /// Head/tail cache: (interned property, environment) → set of pairs
    /// the stream satisfies under the environment. Computed from
    /// scratch per (property, environment) via the explicit-set
    /// machinery — the Ω(n) price the baseline pays for a probe the
    /// DFSM answers with one bit.
    head_tail: FxHashMap<(u32, FdEnvId), FxHashSet<HeadTail>>,
    /// `contains` result cache: (physical property, environment,
    /// required key) → answer.
    contains: FxHashMap<(u32, FdEnvId, u32), bool>,
}

/// The prepared Simmen-style framework for one query.
pub struct SimmenFramework {
    memo: Mutex<Memo>,
    /// Interesting properties (orderings prefix-closed, groupings and
    /// pairs as-is), indexable by key.
    props: Vec<LogicalProperty>,
    prop_keys: FxHashMap<LogicalProperty, SimmenOrderKey>,
    producible: Vec<bool>,
    /// Interned physical-property id per key, fixed at preparation —
    /// `produce` is a pure lookup, no lock.
    phys_of_key: Vec<u32>,
}

impl SimmenFramework {
    /// "Preparation" for Simmen's algorithm is trivial (that is its
    /// advantage; the paper's point is that it loses during plan
    /// generation): intern the interesting properties and set up stores.
    pub fn prepare(spec: &InputSpec) -> Self {
        let mut interned: Interner<LogicalProperty> = Interner::new();
        interned.intern(Ordering::empty().into());

        let mut props: Vec<LogicalProperty> = Vec::new();
        let mut prop_keys = FxHashMap::default();
        let mut producible = Vec::new();
        let mut phys_of_key = Vec::new();
        for (p, prod) in spec.interesting_closure() {
            prop_keys.insert(p.clone(), SimmenOrderKey(props.len() as u32));
            phys_of_key.push(interned.intern(p.clone()));
            props.push(p);
            producible.push(prod);
        }
        SimmenFramework {
            memo: Mutex::new(Memo {
                props: interned,
                envs: EnvStore::new(spec.fd_sets().to_vec()),
                reduce: FxHashMap::default(),
                grouping: FxHashMap::default(),
                extend: FxHashMap::default(),
                head_tail: FxHashMap::default(),
                contains: FxHashMap::default(),
            }),
            props,
            prop_keys,
            producible,
            phys_of_key,
        }
    }

    fn memo(&self) -> MutexGuard<'_, Memo> {
        self.memo
            .lock()
            .expect("a probe panicked holding the simmen memo")
    }

    /// All interesting *orderings* with their keys.
    pub fn orders(&self) -> impl Iterator<Item = (&Ordering, SimmenOrderKey)> {
        self.props
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.as_ordering().map(|o| (o, SimmenOrderKey(i as u32))))
    }

    /// All interesting *groupings* with their keys.
    pub fn groupings(&self) -> impl Iterator<Item = (&Grouping, SimmenOrderKey)> {
        self.props
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.as_grouping().map(|g| (g, SimmenOrderKey(i as u32))))
    }

    /// Reduction-cache size (for diagnostics).
    pub fn cache_entries(&self) -> usize {
        self.memo().reduce.len()
    }
}

impl OrderOracle for SimmenFramework {
    type State = SimmenState;
    type Key = SimmenOrderKey;

    fn resolve(&self, p: &LogicalProperty) -> Option<SimmenOrderKey> {
        self.prop_keys.get(p).copied()
    }

    fn is_producible(&self, k: SimmenOrderKey) -> bool {
        self.producible[k.0 as usize]
    }

    /// State of an unordered stream with no dependencies.
    fn produce_empty(&self) -> SimmenState {
        SimmenState {
            phys: 0,
            env: FdEnvId(0),
        }
    }

    /// State of a stream physically shaped like the property behind `k`
    /// (sort / ordered-scan output for an ordering, hash-aggregation
    /// output for a grouping) with no dependencies yet. Pure lookup —
    /// every interesting property was interned at preparation.
    fn produce(&self, k: SimmenOrderKey) -> SimmenState {
        SimmenState {
            phys: self.phys_of_key[k.0 as usize],
            env: FdEnvId(0),
        }
    }

    /// `inferNewLogicalOrderings`: extends the node's FD environment
    /// (memoized per (environment, FD set)).
    fn infer(&self, s: SimmenState, f: FdSetId) -> SimmenState {
        let mut memo = self.memo();
        let env = match memo.extend.get(&(s.env, f)) {
            Some(&env) => env,
            None => {
                let env = memo.envs.extend(s.env, f);
                memo.extend.insert((s.env, f), env);
                env
            }
        };
        SimmenState { phys: s.phys, env }
    }

    /// `contains`: for an ordering requirement, reduce both orderings
    /// under the environment and prefix-test (cached); a grouped stream
    /// satisfies no ordering. For a grouping or head/tail requirement,
    /// close the stream's implied properties under the environment
    /// (cached) and test membership.
    fn satisfies(&self, s: SimmenState, k: SimmenOrderKey) -> bool {
        let mut memo = self.memo();
        if let Some(&hit) = memo.contains.get(&(s.phys, s.env, k.0)) {
            return hit;
        }
        let result = match &self.props[k.0 as usize] {
            LogicalProperty::Ordering(_) => {
                memo.orderings_contain(s.phys, s.env, self.phys_of_key[k.0 as usize])
            }
            LogicalProperty::Grouping(required) => memo.groupings_contain(s.phys, s.env, required),
            LogicalProperty::HeadTail(required) => memo.head_tails_contain(s.phys, s.env, required),
        };
        memo.contains.insert((s.phys, s.env, k.0), result);
        result
    }

    /// Plan comparability (§7): same physical property, environment a
    /// superset — Simmen's scheme cannot see that extra dependencies are
    /// irrelevant, which is why it prunes fewer plans.
    fn dominates(&self, a: SimmenState, b: SimmenState) -> bool {
        if a.phys != b.phys {
            return false;
        }
        if a.env == b.env {
            return true;
        }
        self.memo().envs.is_superset(a.env, b.env)
    }

    /// Bytes of order-annotation storage for a plan with `plan_nodes`
    /// nodes: the per-node states plus the interned environments,
    /// properties and the memoization caches.
    fn memory_bytes(&self, plan_nodes: usize) -> usize {
        let memo = self.memo();
        let grouping_bytes: usize = memo
            .grouping
            .values()
            .map(|set| {
                std::mem::size_of::<(u32, FdEnvId)>()
                    + set
                        .iter()
                        .map(|g| g.heap_bytes() + std::mem::size_of::<Grouping>())
                        .sum::<usize>()
            })
            .sum();
        let head_tail_bytes: usize = memo
            .head_tail
            .values()
            .map(|set| {
                std::mem::size_of::<(u32, FdEnvId)>()
                    + set
                        .iter()
                        .map(|h| h.heap_bytes() + std::mem::size_of::<HeadTail>())
                        .sum::<usize>()
            })
            .sum();
        let prop_bytes: usize = memo
            .props
            .iter()
            .map(|(_, p)| p.heap_bytes() + std::mem::size_of::<LogicalProperty>())
            .sum();
        plan_nodes * std::mem::size_of::<SimmenState>()
            + memo.envs.memory_bytes()
            + prop_bytes
            + grouping_bytes
            + head_tail_bytes
            + memo.reduce.len()
                * (std::mem::size_of::<(u32, FdEnvId)>() + std::mem::size_of::<u32>())
            + memo.extend.len()
                * (std::mem::size_of::<(FdEnvId, FdSetId)>() + std::mem::size_of::<FdEnvId>())
            + memo.contains.len()
                * (std::mem::size_of::<(u32, FdEnvId, u32)>() + std::mem::size_of::<bool>())
    }

    fn name(&self) -> &'static str {
        "simmen"
    }
}

impl Memo {
    /// Ordering requirement `required` (an interned ordering): reduce
    /// both it and the stream's physical ordering under `env` and
    /// prefix-test. Grouped and head/tail-shaped streams satisfy no
    /// ordering (their group blocks are unordered).
    fn orderings_contain(&mut self, phys: u32, env: FdEnvId, required: u32) -> bool {
        if self.props.resolve(phys).as_ordering().is_none() {
            return false;
        }
        let rp = self.reduced(phys, env);
        let rr = self.reduced(required, env);
        match (
            self.props.resolve(rp).as_ordering(),
            self.props.resolve(rr).as_ordering(),
        ) {
            (Some(rp), Some(rr)) => rr.is_prefix_of(rp),
            _ => false,
        }
    }

    /// Membership probe against the cached head/tail set of the stream
    /// in physical property `phys` under `env`. Simmen's scheme has no
    /// compact representation for "grouped and sorted within groups", so
    /// the baseline materializes the full explicit property closure once
    /// per (property, environment) — persistent-FD semantics, like its
    /// grouping probe — and caches the pair set.
    fn head_tails_contain(&mut self, phys: u32, env: FdEnvId, required: &HeadTail) -> bool {
        if let Some(hit) = self.head_tail.get(&(phys, env)) {
            return hit.contains(required);
        }
        let mut truth = match self.props.resolve(phys) {
            LogicalProperty::Ordering(o) => ExplicitOrderings::from_physical(o),
            LogicalProperty::Grouping(g) => ExplicitOrderings::from_grouping(g),
            LogicalProperty::HeadTail(h) => ExplicitOrderings::from_head_tail(h),
        };
        truth.close_under(&self.envs.env(env).fds);
        let set: FxHashSet<HeadTail> = truth.iter_head_tails().cloned().collect();
        let hit = set.contains(required);
        self.head_tail.insert((phys, env), set);
        hit
    }

    /// Cached reduction of the interned ordering `phys` under `env`.
    fn reduced(&mut self, phys: u32, env: FdEnvId) -> u32 {
        if let Some(&hit) = self.reduce.get(&(phys, env)) {
            return hit;
        }
        let o = self
            .props
            .resolve(phys)
            .as_ordering()
            .expect("reduction is only defined on orderings");
        let r: LogicalProperty = reduce(o, &self.envs.env(env).fds).into();
        let id = self.props.intern(r);
        self.reduce.insert((phys, env), id);
        id
    }

    /// Membership probe against the cached grouping set of the stream in
    /// physical property `phys` under `env`: prefix attribute sets of the
    /// physical ordering (or the grouping key itself), closed under the
    /// environment's dependencies — the persistent-FD ground truth,
    /// probed in place once computed.
    ///
    /// Closures are built *incrementally* along the environment's
    /// derivation chain: `env` extends its parent by exactly one FD set,
    /// so the closure under `env` is the parent's closure (cached or
    /// computed on the way) plus the semi-naive delta of the added
    /// dependencies. Every environment on the chain gets its closure
    /// cached, so a probe on a deep environment both reuses and seeds the
    /// shallower ones.
    fn groupings_contain(&mut self, phys: u32, env: FdEnvId, required: &Grouping) -> bool {
        if let Some(hit) = self.grouping.get(&(phys, env)) {
            return hit.contains(required);
        }
        // Walk up the derivation chain to the nearest cached ancestor
        // (or the root environment).
        let mut chain: Vec<(FdEnvId, FdSetId)> = Vec::new();
        let mut anchor = env;
        while !self.grouping.contains_key(&(phys, anchor)) {
            match self.envs.parent(anchor) {
                Some((parent, added)) => {
                    chain.push((anchor, added));
                    anchor = parent;
                }
                None => break,
            }
        }
        // Closure at the anchor: cached, or the base set of the physical
        // property closed under the (possibly empty) anchor environment.
        let mut set: FxHashSet<Grouping> = match self.grouping.get(&(phys, anchor)) {
            Some(hit) => hit.clone(),
            None => {
                let mut base: FxHashSet<Grouping> = FxHashSet::default();
                match self.props.resolve(phys) {
                    LogicalProperty::Ordering(o) => {
                        for len in 1..=o.len() {
                            base.insert(Grouping::new(o.attrs()[..len].to_vec()));
                        }
                    }
                    LogicalProperty::Grouping(g) => {
                        base.insert(g.clone());
                    }
                    LogicalProperty::HeadTail(h) => {
                        // Grouped by the head, and by the head plus any
                        // absorbed within-group-sorted tail prefix.
                        base.extend(h.absorbed_heads());
                    }
                }
                let fds = &self.envs.env(anchor).fds;
                let seed: Vec<Grouping> = base.iter().cloned().collect();
                close_under(&mut base, seed, fds, fds);
                self.grouping.insert((phys, anchor), base.clone());
                base
            }
        };
        // Extend one derivation step at a time, reusing everything
        // already closed: existing members only need the *added* set's
        // dependencies applied; whatever that derives is then chased
        // under the full environment.
        for &(step_env, added) in chain.iter().rev() {
            let seed: Vec<Grouping> = set.iter().cloned().collect();
            close_under(
                &mut set,
                seed,
                self.envs.set_fds(added),
                &self.envs.env(step_env).fds,
            );
            self.grouping.insert((phys, step_env), set.clone());
        }
        set.contains(required)
    }
}

/// Semi-naive closure step: applies `delta_fds` to every seed grouping,
/// then chases each *newly derived* grouping under `all_fds` to the
/// fixpoint. When `delta_fds == all_fds` and the seeds are the whole
/// set, this is the classic from-scratch fixpoint.
fn close_under(
    set: &mut FxHashSet<Grouping>,
    seeds: Vec<Grouping>,
    delta_fds: &[Fd],
    all_fds: &[Fd],
) {
    let mut buf: Vec<Grouping> = Vec::new();
    let mut fresh: Vec<Grouping> = Vec::new();
    for cur in &seeds {
        for fd in delta_fds {
            buf.clear();
            apply_fd_grouping(cur, fd, &mut buf);
            for d in buf.drain(..) {
                if !d.is_empty() && set.insert(d.clone()) {
                    fresh.push(d);
                }
            }
        }
    }
    while let Some(cur) = fresh.pop() {
        for fd in all_fds {
            buf.clear();
            apply_fd_grouping(&cur, fd, &mut buf);
            for d in buf.drain(..) {
                if !d.is_empty() && set.insert(d.clone()) {
                    fresh.push(d);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofw_catalog::AttrId;
    use ofw_core::fd::Fd;

    const A: AttrId = AttrId(0);
    const B: AttrId = AttrId(1);
    const C: AttrId = AttrId(2);
    const D: AttrId = AttrId(3);

    fn o(ids: &[AttrId]) -> Ordering {
        Ordering::new(ids.to_vec())
    }

    fn g(ids: &[AttrId]) -> Grouping {
        Grouping::new(ids.to_vec())
    }

    fn running_example() -> (InputSpec, FdSetId, FdSetId) {
        let mut spec = InputSpec::new();
        spec.add_produced(o(&[B]));
        spec.add_produced(o(&[A, B]));
        spec.add_tested(o(&[A, B, C]));
        let f_bc = spec.add_fd_set(vec![Fd::functional(&[B], C)]);
        let f_bd = spec.add_fd_set(vec![Fd::functional(&[B], D)]);
        (spec, f_bc, f_bd)
    }

    #[test]
    fn mirrors_core_walkthrough() {
        let (spec, f_bc, _) = running_example();
        let fw = SimmenFramework::prepare(&spec);
        let k_a = fw.resolve(&o(&[A]).into()).unwrap();
        let k_ab = fw.resolve(&o(&[A, B]).into()).unwrap();
        let k_abc = fw.resolve(&o(&[A, B, C]).into()).unwrap();

        let s = fw.produce(k_ab);
        assert!(fw.satisfies(s, k_a));
        assert!(fw.satisfies(s, k_ab));
        assert!(!fw.satisfies(s, k_abc));

        let s2 = fw.infer(s, f_bc);
        assert!(fw.satisfies(s2, k_abc));
        assert!(fw.satisfies(s2, k_ab));
        assert_eq!(fw.infer(s2, f_bc), s2);
    }

    #[test]
    fn domination_needs_same_ordering_and_env_superset() {
        let (spec, f_bc, f_bd) = running_example();
        let fw = SimmenFramework::prepare(&spec);
        let k_ab = fw.resolve(&o(&[A, B]).into()).unwrap();
        let base = fw.produce(k_ab);
        let with_bc = fw.infer(base, f_bc);
        let with_both = fw.infer(with_bc, f_bd);
        assert!(fw.dominates(with_bc, base));
        assert!(fw.dominates(with_both, with_bc));
        assert!(!fw.dominates(base, with_bc));
        // Unlike the DFSM framework, Simmen's scheme cannot see that
        // b→d is irrelevant: with_both does NOT equal with_bc, so two
        // otherwise identical plans stay alive.
        assert_ne!(with_both, with_bc);
        // Different physical orderings never compare.
        let k_b = fw.resolve(&o(&[B]).into()).unwrap();
        assert!(!fw.dominates(fw.produce(k_b), base));
    }

    #[test]
    fn reduce_cache_fills_and_memory_is_accounted() {
        let (spec, f_bc, _) = running_example();
        let fw = SimmenFramework::prepare(&spec);
        let k_ab = fw.resolve(&o(&[A, B]).into()).unwrap();
        let m0 = fw.memory_bytes(0);
        let s = fw.infer(fw.produce(k_ab), f_bc);
        let k_abc = fw.resolve(&o(&[A, B, C]).into()).unwrap();
        assert!(fw.satisfies(s, k_abc));
        assert!(fw.satisfies(s, k_abc)); // second probe hits the cache
        assert!(fw.cache_entries() >= 2);
        assert!(fw.memory_bytes(0) > m0);
        // Per-plan-node cost is the 8-byte state.
        assert_eq!(
            fw.memory_bytes(100) - fw.memory_bytes(0),
            100 * std::mem::size_of::<SimmenState>()
        );
    }

    #[test]
    fn produce_empty_satisfies_nothing_until_constants() {
        let mut spec = InputSpec::new();
        spec.add_produced(o(&[A]));
        let f = spec.add_fd_set(vec![Fd::constant(A)]);
        let fw = SimmenFramework::prepare(&spec);
        let k_a = fw.resolve(&o(&[A]).into()).unwrap();
        let s = fw.produce_empty();
        assert!(!fw.satisfies(s, k_a));
        let s2 = fw.infer(s, f);
        assert!(fw.satisfies(s2, k_a), "a=const ⇒ stream ordered by (a)");
    }

    #[test]
    fn prefixes_of_interesting_orders_have_keys() {
        let (spec, _, _) = running_example();
        let fw = SimmenFramework::prepare(&spec);
        assert!(fw.resolve(&o(&[A]).into()).is_some());
        assert!(fw.resolve(&o(&[C]).into()).is_none());
        assert!(fw.is_producible(fw.resolve(&o(&[B]).into()).unwrap()));
        assert!(!fw.is_producible(fw.resolve(&o(&[A]).into()).unwrap()));
    }

    #[test]
    fn grouping_support_mirrors_the_combined_framework() {
        let mut spec = InputSpec::new();
        spec.add_produced(o(&[A, B]));
        spec.add_produced(g(&[A, B]));
        spec.add_tested(g(&[A, B, C]));
        let f_bc = spec.add_fd_set(vec![Fd::functional(&[B], C)]);
        let fw = SimmenFramework::prepare(&spec);

        let k_ab = fw.resolve(&o(&[A, B]).into()).unwrap();
        let kg_ab = fw.resolve(&g(&[A, B]).into()).unwrap();
        let kg_abc = fw.resolve(&g(&[A, B, C]).into()).unwrap();
        assert!(fw.is_producible(kg_ab));
        assert!(!fw.is_producible(kg_abc));

        // Sorted stream: grouped by every prefix set; FD extends it.
        let s = fw.produce(k_ab);
        assert!(fw.satisfies(s, kg_ab));
        assert!(!fw.satisfies(s, kg_abc));
        let s2 = fw.infer(s, f_bc);
        assert!(fw.satisfies(s2, kg_abc));

        // Hash-grouped stream: its grouping, but no ordering.
        let sg = fw.produce(kg_ab);
        assert!(fw.satisfies(sg, kg_ab));
        assert!(!fw.satisfies(sg, k_ab));
        assert!(fw.satisfies(fw.infer(sg, f_bc), kg_abc));
        // Different physical kinds never dominate each other.
        assert!(!fw.dominates(s, sg));
        assert_eq!(fw.groupings().count(), 2);
    }

    #[test]
    fn memo_agrees_across_threads() {
        // Eight threads probe one shared memo after a serial warm-up:
        // every thread's probe answers (and the states it builds) must
        // be identical to the serial ones.
        let (spec, f_bc, f_bd) = running_example();
        let fw = SimmenFramework::prepare(&spec);
        let k_ab = fw.resolve(&o(&[A, B]).into()).unwrap();
        let k_abc = fw.resolve(&o(&[A, B, C]).into()).unwrap();
        let probe = |fw: &SimmenFramework| -> (SimmenState, Vec<bool>) {
            let s = fw.infer(fw.infer(fw.produce(k_ab), f_bc), f_bd);
            let answers = vec![
                fw.satisfies(s, k_ab),
                fw.satisfies(s, k_abc),
                fw.dominates(s, fw.produce(k_ab)),
            ];
            (s, answers)
        };
        let (serial_state, serial_answers) = probe(&fw);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let (s, answers) = probe(&fw);
                    assert_eq!(s, serial_state, "memo ids are authoritative");
                    assert_eq!(answers, serial_answers);
                });
            }
        });
        assert!(fw.cache_entries() >= 2);
        assert!(fw.memory_bytes(0) > 0);
    }

    #[test]
    fn incremental_closure_matches_stepwise_and_fresh_probes() {
        // A chain of dependencies a→b→c→d. The grouping closure of a
        // stream ordered by (a) must grow one attribute per applied FD
        // set, and it must not matter whether intermediate environments
        // were probed (warm parent-chain cache) or only the deepest one
        // (closure built through the chain in one go).
        let mut spec = InputSpec::new();
        spec.add_produced(o(&[A]));
        spec.add_tested(g(&[A, B]));
        spec.add_tested(g(&[A, B, C]));
        spec.add_tested(g(&[A, B, C, D]));
        let f_ab = spec.add_fd_set(vec![Fd::functional(&[A], B)]);
        let f_bc = spec.add_fd_set(vec![Fd::functional(&[B], C)]);
        let f_cd = spec.add_fd_set(vec![Fd::functional(&[C], D)]);

        let probe_all = |fw: &SimmenFramework, s: SimmenState| -> Vec<bool> {
            [g(&[A, B]), g(&[A, B, C]), g(&[A, B, C, D])]
                .into_iter()
                .map(|gr| fw.satisfies(s, fw.resolve(&gr.into()).unwrap()))
                .collect()
        };

        // Stepwise: probe after every single infer (caches every chain
        // link as it appears).
        let fw = SimmenFramework::prepare(&spec);
        let k_a = fw.resolve(&o(&[A]).into()).unwrap();
        let s0 = fw.produce(k_a);
        let s1 = fw.infer(s0, f_ab);
        assert_eq!(probe_all(&fw, s1), vec![true, false, false]);
        let s2 = fw.infer(s1, f_bc);
        assert_eq!(probe_all(&fw, s2), vec![true, true, false]);
        let s3 = fw.infer(s2, f_cd);
        assert_eq!(probe_all(&fw, s3), vec![true, true, true]);

        // Fresh framework, deepest environment probed first: the chain
        // walk computes ancestors on the way — same answers.
        let fresh = SimmenFramework::prepare(&spec);
        let t3 = fresh.infer(
            fresh.infer(fresh.infer(fresh.produce(k_a), f_ab), f_bc),
            f_cd,
        );
        assert_eq!(probe_all(&fresh, t3), vec![true, true, true]);
        // ...and the intermediate environments were cached on the way,
        // so shallower probes agree without recomputation.
        let t1 = fresh.infer(fresh.produce(k_a), f_ab);
        assert_eq!(probe_all(&fresh, t1), vec![true, false, false]);
    }
}
