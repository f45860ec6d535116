//! The public order-and-grouping-optimization ADT (paper §5.6, extended
//! to the combined framework of VLDB'04).
//!
//! [`OrderingFramework::prepare`] runs the whole preparation phase of
//! Fig. 3 once per query; afterwards the ADT `LogicalOrderings` is the
//! 4-byte [`State`], and every [`OrderOracle`] operation is a single
//! array or bit lookup:
//!
//! | paper operation                    | here                          | cost |
//! |------------------------------------|-------------------------------|------|
//! | handle of an interesting property  | [`OrderOracle::resolve`]      | one hash lookup (cold path) |
//! | constructor (scan/sort/hash group) | [`OrderOracle::produce`]      | O(1) |
//! | `contains(p)`                      | [`OrderOracle::satisfies`]    | O(1) |
//! | `inferNewLogicalOrderings(F)`      | [`OrderOracle::infer`]        | O(1) |
//!
//! Orderings, groupings and head/tail pairs share one handle space
//! ([`OrderHandle`]) and one state space: a [`State`] annotates a plan
//! node with *everything* the stream satisfies — the orderings it is
//! sorted by, the groupings it is grouped by, the pairs it is sorted by
//! within groups — still in four bytes.
//!
//! # Preparation
//!
//! Determinization is the framework's only real cost, and there is one
//! way to pay it: the full subset construction at prepare time
//! ([`Dfsm::build`]), so a prepared framework is immutable and every
//! probe is a lookup. [`prepare_opts`](OrderingFramework::prepare_opts)
//! is the same preparation with a span sink attached.
//!
//! Structurally identical specs can additionally share one prepared
//! automaton through a [`PreparedCache`]
//! ([`prepare_cached`](OrderingFramework::prepare_cached)): warm
//! preparation is a canonicalization pass plus a hash lookup.

use crate::dfsm::Dfsm;
use crate::eqclass::EqClasses;
use crate::fd::FdSetId;
use crate::intern::{canonicalize, AttrCanonMap, CacheKey, PreparedCache};
use crate::nfsm::{BuildError, Nfsm};
use crate::oracle::OrderOracle;
use crate::ordering::Ordering;
use crate::property::{Grouping, HeadTail, LogicalProperty};
use crate::prune::{prune_fds, prune_nfsm, PruneConfig};
use crate::spec::InputSpec;
use ofw_common::FxHashMap;
use ofw_obs::Trace;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The per-plan-node annotation: a DFSM state. Four bytes, `Copy` — the
/// O(1) space bound of the paper.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct State(pub u32);

impl std::fmt::Debug for State {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Handle of an interesting order (paper §5.5: handles replace orderings
/// so comparisons are constant-time).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct OrderHandle(pub u32);

impl std::fmt::Debug for OrderHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "o{}", self.0)
    }
}

/// Preparation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrepareError(pub BuildError);

impl std::fmt::Display for PrepareError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "order-framework preparation failed: {}", self.0)
    }
}

impl std::error::Error for PrepareError {}

/// Options of [`OrderingFramework::prepare_opts`] and
/// [`OrderingFramework::prepare_cached`].
#[derive(Clone, Debug, Default)]
pub struct PrepareOptions {
    /// Span sink for preparation phases (prune_fds / nfsm / determinize /
    /// intern).
    /// Disabled by default; never affects the prepared result and is
    /// excluded from interning cache keys.
    pub trace: Trace,
}

impl PrepareOptions {
    /// Attaches a span sink (default: disabled).
    pub fn trace(mut self, trace: &Trace) -> Self {
        self.trace = trace.clone();
        self
    }
}

/// Metrics of the preparation phase — the quantities of the paper's
/// §6.2 table (NFSM size, DFSM size, total time, precomputed bytes).
#[derive(Clone, Debug, Default)]
pub struct PrepStats {
    /// NFSM nodes before step 2(d) pruning.
    pub nfsm_nodes_before_prune: usize,
    /// NFSM nodes after pruning.
    pub nfsm_nodes: usize,
    /// NFSM FD-edge count after pruning.
    pub nfsm_edges: usize,
    /// Reachable DFSM states (including the empty-stream state) — a
    /// pure function of the spec and the pruning configuration.
    pub dfsm_states: usize,
    /// Whether preparation was satisfied from a [`PreparedCache`] hit.
    pub interned_hit: bool,
    /// Functional dependencies removed by step 2(b).
    pub pruned_fds: usize,
    /// Bytes of precomputed runtime data (transition, contains and
    /// dominance tables).
    pub precomputed_bytes: usize,
    /// Wall-clock time of the whole preparation phase.
    pub prep_time: Duration,
}

/// One preparation result: the pruned NFSM, its DFSM, and the
/// spec-independent metrics. Immutable once built, so it is shareable
/// across queries (and threads) through a [`PreparedCache`].
pub(crate) struct Prepared {
    nfsm: Nfsm,
    dfsm: Dfsm,
    nfsm_nodes_before_prune: usize,
    pruned_fds: usize,
}

/// The prepared order-and-grouping framework for one query.
///
/// Besides the ICDE'04 ordering operations, the framework answers
/// grouping and head/tail questions at the same O(1) cost on the same
/// DFSM path: every interesting property is a contains-matrix column, so
/// [`OrderOracle::satisfies`] is a single bit probe and
/// [`OrderOracle::produce`] a single row lookup whatever the property's
/// kind. An ordering on `(a,b)` satisfies the groupings `{a}` and
/// `{a,b}`; FDs and equivalences apply to attribute *sets* (insertion
/// and removal of determined attributes, constants, equation
/// substitution).
pub struct OrderingFramework {
    prepared: Arc<Prepared>,
    /// Interesting property (orderings prefix-closed, groupings as-is)
    /// → contains-column handle, in the query's own attribute space.
    handles: FxHashMap<LogicalProperty, OrderHandle>,
    /// Produced property → entry state (the `*` row).
    start_of: FxHashMap<OrderHandle, State>,
    stats: PrepStats,
}

impl OrderingFramework {
    /// Runs the preparation phase of Fig. 3: FD filtering, NFSM
    /// construction, NFSM pruning, determinization, precomputation.
    /// Fails — never panics — when the spec exceeds a [`PruneConfig`]
    /// budget (`max_nodes`, `max_dfsm_states`).
    pub fn prepare(spec: &InputSpec, config: PruneConfig) -> Result<Self, PrepareError> {
        Self::prepare_opts(spec, config, &PrepareOptions::default())
    }

    /// [`prepare`](Self::prepare) with explicit [`PrepareOptions`]: the
    /// traced entry point.
    pub fn prepare_opts(
        spec: &InputSpec,
        config: PruneConfig,
        options: &PrepareOptions,
    ) -> Result<Self, PrepareError> {
        let t0 = Instant::now();
        let mut sp = options.trace.span("prepare");
        let prepared = Arc::new(Self::build_prepared(spec, &config, &options.trace)?);
        sp.count("nfsm_nodes", prepared.nfsm.num_nodes() as u64);
        sp.count("dfsm_states", prepared.dfsm.num_states() as u64);
        Ok(Self::from_prepared(prepared, None, false, t0))
    }

    /// Preparation through an interning cache: the spec is canonicalized
    /// (attributes renamed by first occurrence), and structurally
    /// identical specs share one `Prepared` automaton — a warm prepare
    /// is a canonicalization pass plus a hash lookup. Handles and states
    /// returned by a cached framework are internally consistent but may
    /// be numbered differently from an uncached prepare of the same spec
    /// (canonical renaming can reorder set-valued properties), so mix
    /// cached and uncached frameworks only through their probe answers,
    /// never by comparing raw handle values. A failed build caches
    /// nothing.
    pub fn prepare_cached(
        spec: &InputSpec,
        config: PruneConfig,
        options: &PrepareOptions,
        cache: &PreparedCache,
    ) -> Result<Self, PrepareError> {
        let t0 = Instant::now();
        let mut sp = options.trace.span("prepare");
        let (canon_spec, map, key) = {
            let _intern = sp.child("intern");
            let (canon_spec, map) = canonicalize(spec);
            let key = CacheKey::new(&canon_spec, &config);
            (canon_spec, map, key)
        };
        let (prepared, hit) = cache.get_or_build(key, || {
            Self::build_prepared(&canon_spec, &config, &options.trace)
        })?;
        sp.count("interned_hit", u64::from(hit));
        Ok(Self::from_prepared(prepared, Some(&map), hit, t0))
    }

    /// The core of every prepare entry point.
    fn build_prepared(
        spec: &InputSpec,
        config: &PruneConfig,
        trace: &Trace,
    ) -> Result<Prepared, PrepareError> {
        let eq = EqClasses::from_fds(spec.fd_sets().iter().flat_map(|s| s.fds().iter()));
        let (fd_sets, pruned_fds) = {
            let mut sp = trace.span_at("prune_fds", 1);
            let pruned = if config.prune_fds {
                prune_fds(spec, &eq, config)
            } else {
                (spec.fd_sets().to_vec(), 0)
            };
            sp.count("fd_sets", pruned.0.len() as u64);
            sp.count("pruned_fds", pruned.1 as u64);
            pruned
        };
        let (nfsm, nfsm_nodes_before_prune) = {
            let mut sp = trace.span_at("nfsm", 1);
            let nfsm = Nfsm::build(spec, &fd_sets, &eq, config).map_err(PrepareError)?;
            let before = nfsm.num_nodes();
            let nfsm = prune_nfsm(nfsm, config);
            sp.count("nodes_before_prune", before as u64);
            sp.count("nodes", nfsm.num_nodes() as u64);
            sp.count("pruned_fds", pruned_fds as u64);
            (nfsm, before)
        };
        let dfsm = {
            let mut sp = trace.span_at("determinize", 1);
            let dfsm = Dfsm::build(&nfsm, config).map_err(PrepareError)?;
            sp.count("states", dfsm.num_states() as u64);
            dfsm
        };
        Ok(Prepared {
            nfsm,
            dfsm,
            nfsm_nodes_before_prune,
            pruned_fds,
        })
    }

    /// Builds the per-query view over a (possibly shared) preparation:
    /// handles and start states, translated back into the query's own
    /// attribute space when the spec was canonicalized.
    fn from_prepared(
        prepared: Arc<Prepared>,
        map: Option<&AttrCanonMap>,
        interned_hit: bool,
        t0: Instant,
    ) -> Self {
        let mut handles: FxHashMap<LogicalProperty, OrderHandle> = FxHashMap::default();
        for (p, &col) in &prepared.dfsm.columns {
            let p = match map {
                Some(m) => m.prop_to_original(p),
                None => p.clone(),
            };
            handles.insert(p, OrderHandle(col));
        }
        let mut start_of: FxHashMap<OrderHandle, State> = FxHashMap::default();
        for (p, &s) in &prepared.dfsm.start {
            let p = match map {
                Some(m) => m.prop_to_original(p),
                None => p.clone(),
            };
            start_of.insert(handles[&p], State(s));
        }
        let stats = PrepStats {
            nfsm_nodes_before_prune: prepared.nfsm_nodes_before_prune,
            nfsm_nodes: prepared.nfsm.num_nodes(),
            nfsm_edges: prepared.nfsm.num_edges(),
            dfsm_states: prepared.dfsm.num_states(),
            interned_hit,
            pruned_fds: prepared.pruned_fds,
            precomputed_bytes: prepared.dfsm.precomputed_bytes(),
            prep_time: t0.elapsed(),
        };
        OrderingFramework {
            prepared,
            handles,
            start_of,
            stats,
        }
    }

    /// All interesting *orderings* (prefix-closed) with their handles.
    pub fn orders(&self) -> impl Iterator<Item = (&Ordering, OrderHandle)> {
        self.handles
            .iter()
            .filter_map(|(p, &h)| p.as_ordering().map(|o| (o, h)))
    }

    /// All interesting *groupings* with their handles.
    pub fn groupings(&self) -> impl Iterator<Item = (&Grouping, OrderHandle)> {
        self.handles
            .iter()
            .filter_map(|(p, &h)| p.as_grouping().map(|g| (g, h)))
    }

    /// All interesting *head/tail pairs* with their handles.
    pub fn head_tails(&self) -> impl Iterator<Item = (&HeadTail, OrderHandle)> {
        self.handles
            .iter()
            .filter_map(|(p, &h)| p.as_head_tail().map(|ht| (ht, h)))
    }

    /// All interesting properties (orderings and groupings) with their
    /// handles.
    pub fn properties(&self) -> impl Iterator<Item = (&LogicalProperty, OrderHandle)> {
        self.handles.iter().map(|(p, &h)| (p, h))
    }

    /// Preparation metrics, frozen at the end of the prepare call.
    pub fn stats(&self) -> &PrepStats {
        &self.stats
    }

    /// The pruned NFSM (introspection for examples/tests).
    pub fn nfsm(&self) -> &Nfsm {
        &self.prepared.nfsm
    }

    /// The DFSM (introspection for examples/tests). Infallible: every
    /// prepared framework holds a complete one.
    pub fn dfsm(&self) -> &Dfsm {
        &self.prepared.dfsm
    }
}

impl OrderOracle for OrderingFramework {
    type State = State;
    type Key = OrderHandle;

    /// Handle of an interesting property of any kind (orderings
    /// prefix-closed — `Q_I` is). `None` if the property was never
    /// interesting, meaning no operator may ask about it.
    fn resolve(&self, p: &LogicalProperty) -> Option<OrderHandle> {
        self.handles.get(p).copied()
    }

    /// Whether `h` may be produced (is in `O_P`).
    fn is_producible(&self, h: OrderHandle) -> bool {
        self.start_of.contains_key(&h)
    }

    /// ADT constructor for an unordered tuple stream (heap scan).
    #[inline]
    fn produce_empty(&self) -> State {
        State(self.prepared.dfsm.empty_state)
    }

    /// ADT constructor for an operator that *physically produces* a
    /// property — sorts or ordered index scans an ordering, hash
    /// aggregation or hash grouping a grouping: the `*`-row lookup of
    /// Fig. 10. Panics if `h` is not a produced interesting property —
    /// plan generators must only produce members of `O_P`.
    #[inline]
    fn produce(&self, h: OrderHandle) -> State {
        self.start_of
            .get(&h)
            .copied()
            .unwrap_or_else(|| panic!("{h:?} is not a produced interesting property"))
    }

    /// `inferNewLogicalOrderings`: applies an operator's FD set — one
    /// transition-table lookup.
    #[inline]
    fn infer(&self, s: State, f: FdSetId) -> State {
        State(self.prepared.dfsm.step(s.0, f.index()))
    }

    /// `contains`: does a stream in state `s` satisfy the interesting
    /// property `h`? One bit probe for every kind — orderings, groupings
    /// and head/tail pairs are all columns of the contains matrix, which
    /// is what keeps the grouping and partial-sort admission tests O(1)
    /// in the plan generator.
    #[inline]
    fn satisfies(&self, s: State, h: OrderHandle) -> bool {
        self.prepared.dfsm.contains.get(s.0 as usize, h.0 as usize)
    }

    /// Plan-domination: `a`'s underlying NFSM node set is a superset of
    /// `b`'s, so `a` satisfies at least every interesting order `b` does
    /// — now and after any further FD application (transitions are
    /// monotone in the node set). One precomputed bit probe (an on-demand
    /// subset comparison past the dominance-matrix size limit — the same
    /// relation either way). Because DFSM states carry only
    /// query-relevant information, this prunes more plans than Simmen's
    /// ordering+FD-set comparability — the paper's explanation for the
    /// lower `#Plans` in §7.
    #[inline]
    fn dominates(&self, a: State, b: State) -> bool {
        a == b || self.prepared.dfsm.state_dominates(a.0, b.0)
    }

    /// Bytes of order-annotation storage a plan with `plan_nodes` nodes
    /// needs under this framework: 4 bytes per node plus the shared
    /// precomputed tables.
    fn memory_bytes(&self, plan_nodes: usize) -> usize {
        plan_nodes * std::mem::size_of::<State>() + self.prepared.dfsm.precomputed_bytes()
    }

    fn name(&self) -> &'static str {
        "nfsm/dfsm (ours)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fd::Fd;
    use ofw_catalog::AttrId;

    const A: AttrId = AttrId(0);
    const B: AttrId = AttrId(1);
    const C: AttrId = AttrId(2);
    const D: AttrId = AttrId(3);

    fn o(ids: &[AttrId]) -> Ordering {
        Ordering::new(ids.to_vec())
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
    fn section_5_6_walkthrough() {
        // "a sort by (a,b) results in a subplan with ordering 2 … after
        // applying an operator which induces b→c, the ordering changes
        // to 3, which also satisfies (a,b,c)".
        let (spec, f_bc, _) = running_example();
        let fw = OrderingFramework::prepare(&spec, PruneConfig::default()).unwrap();
        let h_a = fw.resolve(&o(&[A]).into()).unwrap();
        let h_ab = fw.resolve(&o(&[A, B]).into()).unwrap();
        let h_abc = fw.resolve(&o(&[A, B, C]).into()).unwrap();
        let h_b = fw.resolve(&o(&[B]).into()).unwrap();

        let s = fw.produce(h_ab);
        assert!(fw.satisfies(s, h_a));
        assert!(fw.satisfies(s, h_ab));
        assert!(!fw.satisfies(s, h_abc));
        assert!(!fw.satisfies(s, h_b));

        let s2 = fw.infer(s, f_bc);
        assert!(fw.satisfies(s2, h_abc));
        assert!(fw.satisfies(s2, h_ab));
        // Inference is monotone and idempotent.
        assert_eq!(fw.infer(s2, f_bc), s2);
    }

    #[test]
    fn pruned_fd_set_is_identity() {
        let (spec, _, f_bd) = running_example();
        let fw = OrderingFramework::prepare(&spec, PruneConfig::default()).unwrap();
        let s = fw.produce(fw.resolve(&o(&[A, B]).into()).unwrap());
        assert_eq!(fw.infer(s, f_bd), s);
        assert_eq!(fw.stats().pruned_fds, 1);
    }

    #[test]
    fn tested_only_orders_are_not_producible() {
        let (spec, _, _) = running_example();
        let fw = OrderingFramework::prepare(&spec, PruneConfig::default()).unwrap();
        let h_abc = fw.resolve(&o(&[A, B, C]).into()).unwrap();
        assert!(!fw.is_producible(h_abc));
        assert!(fw.is_producible(fw.resolve(&o(&[B]).into()).unwrap()));
        // (a) is interesting (prefix) but not producible either.
        assert!(!fw.is_producible(fw.resolve(&o(&[A]).into()).unwrap()));
    }

    #[test]
    fn domination_is_contains_superset() {
        let (spec, f_bc, _) = running_example();
        let fw = OrderingFramework::prepare(&spec, PruneConfig::default()).unwrap();
        let s_ab = fw.produce(fw.resolve(&o(&[A, B]).into()).unwrap());
        let s_b = fw.produce(fw.resolve(&o(&[B]).into()).unwrap());
        let s_abc = fw.infer(s_ab, f_bc);
        assert!(fw.dominates(s_abc, s_ab));
        assert!(!fw.dominates(s_ab, s_abc));
        assert!(!fw.dominates(s_ab, s_b));
        assert!(!fw.dominates(s_b, s_ab));
        assert!(fw.dominates(s_b, s_b));
        // The empty state is dominated by everything.
        assert!(fw.dominates(s_b, fw.produce_empty()));
    }

    #[test]
    fn state_is_four_bytes() {
        assert_eq!(std::mem::size_of::<State>(), 4);
    }

    #[test]
    fn grouping_walkthrough() {
        // Combined framework: produced ordering (a,b), produced grouping
        // {g_ab} (hash aggregation can generate it), FD b→c.
        let mut spec = InputSpec::new();
        spec.add_produced(o(&[A, B]));
        spec.add_produced(Grouping::new(vec![A, B]));
        spec.add_tested(Grouping::new(vec![A, B, C]));
        let f_bc = spec.add_fd_set(vec![Fd::functional(&[B], C)]);
        let fw = OrderingFramework::prepare(&spec, PruneConfig::default()).unwrap();

        let h_ab = fw.resolve(&o(&[A, B]).into()).unwrap();
        let hg_ab = fw.resolve(&Grouping::new(vec![A, B]).into()).unwrap();
        let hg_abc = fw.resolve(&Grouping::new(vec![A, B, C]).into()).unwrap();

        // A sorted stream is grouped (by every prefix set)...
        let s = fw.produce(h_ab);
        assert!(fw.satisfies(s, h_ab));
        assert!(fw.satisfies(s, hg_ab));
        assert!(!fw.satisfies(s, hg_abc));
        // ...and FDs extend groupings by set insertion.
        let s2 = fw.infer(s, f_bc);
        assert!(fw.satisfies(s2, hg_abc));
        assert!(fw.satisfies(s2, h_ab), "ordering survives");

        // A hash-grouped stream satisfies its grouping but no ordering.
        let sg = fw.produce(hg_ab);
        assert!(fw.satisfies(sg, hg_ab));
        assert!(!fw.satisfies(sg, h_ab));
        assert!(fw.satisfies(fw.infer(sg, f_bc), hg_abc));
        // The sorted state dominates the merely-grouped one, never the
        // other way around.
        assert!(fw.dominates(s, sg));
        assert!(!fw.dominates(sg, s));
        // Groupings are enumerable separately from orderings.
        assert_eq!(fw.groupings().count(), 2);
        assert!(fw.orders().count() >= 2);
    }

    #[test]
    fn head_tail_walkthrough() {
        // The partial-sort scenario: hash output grouped by {a}, an FD
        // a→b from a later operator, and the interesting pair {a}(b)
        // the partial-sort admission asks about.
        let mut spec = InputSpec::new();
        spec.add_produced(o(&[A, B]));
        spec.add_produced(Grouping::new(vec![A]));
        spec.add_tested(HeadTail::new(
            Grouping::new(vec![A]),
            Ordering::new(vec![B]),
        ));
        let f_ab = spec.add_fd_set(vec![Fd::functional(&[A], B)]);
        let fw = OrderingFramework::prepare(&spec, PruneConfig::default()).unwrap();

        let pair = HeadTail::new(Grouping::new(vec![A]), Ordering::new(vec![B]));
        let h_pair = fw.resolve(&pair.into()).expect("interesting pair");
        assert!(!fw.is_producible(h_pair), "pairs are tested-only here");

        // A stream sorted by (a,b) satisfies the pair (decomposition).
        let s_sorted = fw.produce(fw.resolve(&o(&[A, B]).into()).unwrap());
        assert!(fw.satisfies(s_sorted, h_pair));
        // A stream merely grouped by {a} does not…
        let hg_a = fw.resolve(&Grouping::new(vec![A]).into()).unwrap();
        let s_grouped = fw.produce(hg_a);
        assert!(!fw.satisfies(s_grouped, h_pair));
        // …until a→b holds: b is constant inside every a-group, so the
        // grouped stream is trivially sorted by (b) within groups.
        let s2 = fw.infer(s_grouped, f_ab);
        assert!(fw.satisfies(s2, h_pair));
        assert!(
            !fw.satisfies(s2, fw.resolve(&o(&[A, B]).into()).unwrap()),
            "the pair is weaker than the full ordering"
        );
        // Sorted dominates pair-satisfying-grouped, not vice versa.
        assert!(fw.dominates(fw.infer(s_sorted, f_ab), s2));
        assert!(!fw.dominates(s2, s_sorted));
        // Pairs are enumerable next to the other kinds.
        assert_eq!(fw.head_tails().count(), 1);
    }

    #[test]
    fn ordering_on_any_permutation_satisfies_the_set_grouping() {
        // Grouping {a,b} is satisfied by a stream sorted (b,a) — sets
        // ignore position.
        let mut spec = InputSpec::new();
        spec.add_produced(o(&[B, A]));
        spec.add_tested(Grouping::new(vec![A, B]));
        let fw = OrderingFramework::prepare(&spec, PruneConfig::default()).unwrap();
        let s = fw.produce(fw.resolve(&o(&[B, A]).into()).unwrap());
        let hg = fw.resolve(&Grouping::new(vec![A, B]).into()).unwrap();
        assert!(fw.satisfies(s, hg));
        // But {a} alone is NOT implied — only prefix sets are groupings,
        // and (b,a)'s prefix sets are {b} and {a,b}.
        assert!(fw.resolve(&Grouping::new(vec![A]).into()).is_none());
    }

    #[test]
    fn unknown_ordering_has_no_handle() {
        let (spec, _, _) = running_example();
        let fw = OrderingFramework::prepare(&spec, PruneConfig::default()).unwrap();
        assert!(fw.resolve(&o(&[C]).into()).is_none());
        assert!(fw.resolve(&o(&[B, A]).into()).is_none());
    }

    #[test]
    fn stats_report_prep_metrics() {
        let (spec, _, _) = running_example();
        let fw = OrderingFramework::prepare(&spec, PruneConfig::default()).unwrap();
        let st = fw.stats();
        assert_eq!(st.dfsm_states, 4);
        assert!(!st.interned_hit);
        assert!(st.nfsm_nodes <= st.nfsm_nodes_before_prune);
        assert!(st.precomputed_bytes > 0);
        // Memory: O(1) per plan node.
        assert_eq!(fw.memory_bytes(1000) - fw.memory_bytes(0), 4000);
    }

    /// The DFSM state budget fails every prepare entry point with a
    /// typed error — at prepare time, never as a panic mid-probe — and a
    /// failed build leaves the cache untouched.
    #[test]
    fn state_budget_is_a_typed_prepare_error() {
        let (spec, _, _) = running_example();
        let tight = || PruneConfig {
            max_dfsm_states: 2,
            ..PruneConfig::default()
        };
        let refused = PrepareError(BuildError::TooManyDfsmStates(2));
        let options = PrepareOptions::default();
        let cache = PreparedCache::new();

        assert_eq!(
            OrderingFramework::prepare(&spec, tight()).err(),
            Some(refused.clone())
        );
        assert_eq!(
            OrderingFramework::prepare_opts(&spec, tight(), &options).err(),
            Some(refused.clone())
        );
        assert_eq!(
            OrderingFramework::prepare_cached(&spec, tight(), &options, &cache).err(),
            Some(refused)
        );
        assert_eq!((cache.len(), cache.misses()), (0, 0));

        // A retry under the default budget builds, and is then served warm.
        let cold =
            OrderingFramework::prepare_cached(&spec, PruneConfig::default(), &options, &cache)
                .unwrap();
        assert!(!cold.stats().interned_hit);
        let warm =
            OrderingFramework::prepare_cached(&spec, PruneConfig::default(), &options, &cache)
                .unwrap();
        assert!(warm.stats().interned_hit);
        assert_eq!(warm.stats().dfsm_states, 4);
        assert_eq!((cache.len(), cache.misses(), cache.hits()), (1, 1, 1));
    }
}
