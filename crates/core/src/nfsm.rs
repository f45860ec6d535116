//! NFSM construction (paper §5.3, extended to groupings per VLDB'04).
//!
//! States are logical *properties* — orderings or groupings. `Q_I`
//! (interesting states) is the *prefix closure* of the interesting
//! orders — the paper's Fig. 9 has a `contains` column for `(a)` even
//! though only `(a,b)` and `(a,b,c)` were specified, because a prefix of
//! an interesting order is itself testable — plus the interesting
//! groupings (groupings have no prefixes: `{a,b}` does not imply `{a}`).
//! `Q_A` (artificial states) holds every other property the closure
//! reaches. Node 0 is the empty ordering `()`: every stream satisfies
//! it, every node has an ε-edge to it, and constants derive from it (a
//! scan with no ordering followed by `x = const` yields a stream
//! logically ordered by `(x)`).
//!
//! Edges:
//! * ε-edges from each ordering node to **all** of its proper prefixes
//!   (prefix closure; kept direct rather than chained so pruning a node
//!   never breaks reachability of the remaining prefixes) **and** to the
//!   grouping node of every prefix attribute *set* that exists — the
//!   ordering→grouping crossover (a sorted stream is grouped by every
//!   prefix set). Grouping nodes ε-step only to node 0.
//! * for each FD-set symbol `f`, edges to every property in the bounded
//!   transitive closure `Ω({p},{f})` — consuming one symbol reaches all
//!   transitively derivable properties, matching the paper's `D_FD`
//!   definition via `o ⊢_f o′`; grouping nodes use the set-derivation
//!   rules of [`crate::derive::apply_fd_grouping`].
//!
//! Grouping nodes are only materialized when the spec declares
//! interesting groupings — pure ordering queries build byte-identical
//! automata to the ICDE'04 pipeline. When groupings are present, every
//! ordering node seeds the grouping nodes of its prefix sets (subject to
//! the [`crate::filter::GroupingFilter`] admission test), which is
//! sufficient for completeness: any grouping derivable from a *derived*
//! ordering is also derivable, by the more permissive set rules, from a
//! prefix-set grouping of the source ordering.
//!
//! The artificial start node `q0` with its produced-property entry edges
//! is kept virtual; the DFSM construction materializes its row (`*` in
//! Fig. 10).

use crate::derive::{grouping_closure, mixed_closure, DeriveCtx};
use crate::eqclass::EqClasses;
use crate::fd::FdSet;
use crate::filter::{GroupingFilter, HeadTailFilter, PrefixFilter};
use crate::ordering::Ordering;
use crate::property::{Grouping, HeadTail, LogicalProperty};
use crate::prune::PruneConfig;
use crate::spec::InputSpec;
use ofw_common::Interner;

/// Index of an NFSM node.
pub type NodeId = u32;

/// Classification of an NFSM node.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeInfo {
    /// Member of `Q_I`: contains() may be asked about it.
    pub interesting: bool,
    /// Member of `O_P`: some physical operator can produce it directly,
    /// so the start node has an artificial edge to it.
    pub produced: bool,
}

/// The non-deterministic FSM over logical properties.
pub struct Nfsm {
    /// Node id ↔ property (node 0 is the empty ordering).
    pub props: Interner<LogicalProperty>,
    /// Per-node classification.
    pub info: Vec<NodeInfo>,
    /// ε-edges: ordering node → proper prefixes and prefix-set
    /// groupings (incl. node 0).
    pub eps: Vec<Vec<NodeId>>,
    /// FD edges: `edges[node][fd_set_id]` → derivable nodes.
    pub edges: Vec<Vec<Vec<NodeId>>>,
    /// Number of FD-set symbols (fixed for the query).
    pub num_symbols: usize,
}

/// Construction failure: the state space exceeded a configured cap
/// (only plausible with pruning disabled on adversarial inputs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// More NFSM nodes than `PruneConfig::max_nodes`.
    TooManyNodes(usize),
    /// More DFSM states than `PruneConfig::max_dfsm_states`.
    TooManyDfsmStates(usize),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::TooManyNodes(n) => {
                write!(f, "NFSM exceeded the configured node limit ({n})")
            }
            BuildError::TooManyDfsmStates(n) => {
                write!(f, "DFSM exceeded the configured state limit ({n})")
            }
        }
    }
}

impl std::error::Error for BuildError {}

impl Nfsm {
    /// Builds the NFSM for `spec` (steps 2(a)–2(c) of Fig. 3). FD
    /// filtering and node pruning (steps 2(b), 2(d)) live in
    /// [`crate::prune`] and are orchestrated by
    /// [`OrderingFramework::prepare`](crate::OrderingFramework::prepare);
    /// this function takes the (possibly already filtered) FD sets.
    pub fn build(
        spec: &InputSpec,
        fd_sets: &[FdSet],
        eq: &EqClasses,
        config: &PruneConfig,
    ) -> Result<Nfsm, BuildError> {
        let all_fds: Vec<crate::fd::Fd> = fd_sets
            .iter()
            .flat_map(|s| s.fds().iter().cloned())
            .collect();
        let filter = PrefixFilter::new(
            spec.interesting_orderings(),
            &all_fds,
            eq,
            config.prefix_filter,
        );
        // Groupings only enter the automaton when the query declares
        // interesting groupings — otherwise the build is identical to
        // the pure ordering pipeline. Head/tail pairs are gated the same
        // way one level up: without interesting pairs the build is
        // identical to the ordering + grouping pipeline.
        let headtail_mode = spec.has_head_tails();
        let grouping_mode = spec.has_groupings() || headtail_mode;
        // Interesting pairs make their implied groupings (head plus any
        // absorbed tail prefix) reachability targets for the grouping
        // admission too — a grouping that can complete into an
        // interesting pair's head must stay alive.
        let pair_groupings: Vec<Grouping> = spec
            .interesting_head_tails()
            .flat_map(HeadTail::absorbed_heads)
            .collect();
        let gfilter = GroupingFilter::new(
            spec.interesting_groupings().chain(pair_groupings.iter()),
            &all_fds,
            eq,
            config.prefix_filter,
        );
        let hfilter = HeadTailFilter::new(
            spec.interesting_head_tails(),
            &all_fds,
            eq,
            config.prefix_filter,
        );
        // The blanket length cutoff only applies when the admission
        // filter is off: the filter computes a per-candidate bound that
        // generalizes it (useful orderings can exceed the longest
        // interesting order by removable attributes, e.g. a constant
        // prefix that a later removal strips away).
        let max_len = if !config.prefix_filter && config.length_cutoff {
            spec.max_interesting_len()
        } else {
            usize::MAX
        };
        let ctx = DeriveCtx {
            eq,
            filter: &filter,
            max_len,
        };

        let mut nfsm = Nfsm {
            props: Interner::new(),
            info: Vec::new(),
            eps: Vec::new(),
            edges: Vec::new(),
            num_symbols: fd_sets.len(),
        };
        // Node 0: the empty ordering.
        let root = nfsm.add_node(Ordering::empty().into(), config)?;
        debug_assert_eq!(root, 0);

        // Interesting nodes: prefix closure of the interesting orderings
        // plus the interesting groupings as-is.
        for p in spec.interesting() {
            let id = nfsm.add_node(p.clone(), config)?;
            nfsm.info[id as usize].interesting = true;
            if let LogicalProperty::Ordering(o) = p {
                for prefix in o.proper_prefixes() {
                    let pid = nfsm.add_node(prefix.into(), config)?;
                    nfsm.info[pid as usize].interesting = true;
                }
            }
        }
        for p in spec.produced() {
            let id = nfsm.add_node(p.clone(), config)?;
            nfsm.info[id as usize].produced = true;
        }

        // Worklist closure: compute FD edges, materializing new nodes
        // (and, for orderings, their prefixes and prefix-set groupings)
        // as they appear.
        let mut next: u32 = 0;
        while (next as usize) < nfsm.props.len() {
            let node = next;
            next += 1;
            let prop = nfsm.props.resolve(node).clone();
            match &prop {
                LogicalProperty::Ordering(ordering) => {
                    if grouping_mode && node != 0 {
                        // Seed the grouping nodes this ordering implies
                        // (its prefix attribute sets) — the crossover
                        // sources for grouping derivation.
                        for len in 1..=ordering.len() {
                            let g = Grouping::new(ordering.attrs()[..len].to_vec());
                            if gfilter.admits(&g) {
                                nfsm.add_node(g.into(), config)?;
                            }
                        }
                    }
                    if headtail_mode && node != 0 {
                        // Seed the pair nodes this ordering implies —
                        // every (prefix set, continuation) decomposition
                        // — so pair derivation has its crossover sources
                        // (a pair can reach properties the positional
                        // ordering rules cannot, e.g. inserting a
                        // head-determined attribute at the tail front).
                        for pair in HeadTail::decompositions(ordering) {
                            if hfilter.admits(&pair) {
                                nfsm.add_node(pair.into(), config)?;
                            }
                        }
                    }
                    for (sym, fd_set) in fd_sets.iter().enumerate() {
                        if fd_set.is_empty() {
                            continue;
                        }
                        let derived = ctx.closure(ordering, fd_set.fds());
                        let mut targets: Vec<NodeId> = Vec::with_capacity(derived.len());
                        for d in derived {
                            // Materialize the target and its prefixes.
                            for p in d.proper_prefixes() {
                                nfsm.add_node(p.into(), config)?;
                            }
                            targets.push(nfsm.add_node(d.into(), config)?);
                        }
                        targets.sort_unstable();
                        targets.dedup();
                        nfsm.edges[node as usize][sym] = targets;
                    }
                }
                LogicalProperty::Grouping(_) | LogicalProperty::HeadTail(_) => {
                    for (sym, fd_set) in fd_sets.iter().enumerate() {
                        if fd_set.is_empty() {
                            continue;
                        }
                        // Pure grouping pipeline: the set rules alone.
                        // With pairs in play, groupings additionally
                        // derive pairs (within-group constants become
                        // one-attribute tails) and pairs derive across
                        // both components — the mixed closure.
                        let derived: Vec<LogicalProperty> = if headtail_mode {
                            mixed_closure(&prop, fd_set.fds(), &ctx, &gfilter, &hfilter)
                        } else {
                            let g = prop.as_grouping().expect("pair without headtail_mode");
                            grouping_closure(g, fd_set.fds(), &gfilter)
                                .into_iter()
                                .map(LogicalProperty::Grouping)
                                .collect()
                        };
                        let mut targets: Vec<NodeId> = Vec::with_capacity(derived.len());
                        for d in derived {
                            if let LogicalProperty::Ordering(o) = &d {
                                for p in o.proper_prefixes() {
                                    nfsm.add_node(p.into(), config)?;
                                }
                            }
                            targets.push(nfsm.add_node(d, config)?);
                        }
                        targets.sort_unstable();
                        targets.dedup();
                        nfsm.edges[node as usize][sym] = targets;
                    }
                }
            }
        }
        // ε-edges: node 0, every existing proper prefix, (for orderings)
        // every existing prefix-set grouping node and — with pairs in
        // play — every existing decomposition node: an ordering implies
        // each (prefix set, continuation) pair, and a pair implies each
        // of its sub-decompositions (tail prefix truncated and/or
        // absorbed into the head).
        for node in 0..nfsm.props.len() as u32 {
            let prop = nfsm.props.resolve(node).clone();
            let mut eps: Vec<NodeId> = Vec::new();
            if node != 0 {
                eps.push(0);
            }
            match &prop {
                LogicalProperty::Ordering(ordering) => {
                    for p in ordering.proper_prefixes() {
                        if let Some(pid) = nfsm.props.get(&p.into()) {
                            eps.push(pid);
                        }
                    }
                    if grouping_mode {
                        for len in 1..=ordering.len() {
                            let g = Grouping::new(ordering.attrs()[..len].to_vec());
                            if let Some(gid) = nfsm.props.get(&g.into()) {
                                eps.push(gid);
                            }
                        }
                    }
                    if headtail_mode {
                        for pair in HeadTail::decompositions(ordering) {
                            if let Some(pid) = nfsm.props.get(&pair.into()) {
                                eps.push(pid);
                            }
                        }
                    }
                }
                LogicalProperty::HeadTail(ht) => {
                    for implied in ht.implications() {
                        if let Some(pid) = nfsm.props.get(&implied) {
                            eps.push(pid);
                        }
                    }
                }
                LogicalProperty::Grouping(_) => {}
            }
            eps.sort_unstable();
            eps.dedup();
            nfsm.eps[node as usize] = eps;
        }
        Ok(nfsm)
    }

    /// Interns `p` as a node, growing the side tables; errors out past
    /// the configured cap.
    fn add_node(&mut self, p: LogicalProperty, config: &PruneConfig) -> Result<NodeId, BuildError> {
        let before = self.props.len();
        let id = self.props.intern(p);
        if self.props.len() > before {
            if self.props.len() > config.max_nodes {
                return Err(BuildError::TooManyNodes(config.max_nodes));
            }
            self.info.push(NodeInfo::default());
            self.eps.push(Vec::new());
            self.edges.push(vec![Vec::new(); self.num_symbols]);
        }
        Ok(id)
    }

    /// Number of nodes, counting the implicit empty-ordering node.
    pub fn num_nodes(&self) -> usize {
        self.props.len()
    }

    /// Total FD-edge count (each target counted once).
    pub fn num_edges(&self) -> usize {
        self.edges
            .iter()
            .map(|per_sym| per_sym.iter().map(Vec::len).sum::<usize>())
            .sum()
    }

    /// FD-edge targets of `node` under symbol `sym`, ascending and
    /// duplicate-free (empty when the symbol derives nothing there).
    pub fn targets(&self, node: NodeId, sym: usize) -> &[NodeId] {
        &self.edges[node as usize][sym]
    }

    /// Node lookup by ordering.
    pub fn node_of(&self, o: &Ordering) -> Option<NodeId> {
        self.props.get(&o.clone().into())
    }

    /// Node lookup by grouping.
    pub fn node_of_grouping(&self, g: &Grouping) -> Option<NodeId> {
        self.props.get(&g.clone().into())
    }

    /// Node lookup by head/tail pair.
    pub fn node_of_head_tail(&self, h: &HeadTail) -> Option<NodeId> {
        self.props.get(&h.clone().into())
    }

    /// Node lookup by property.
    pub fn node_of_prop(&self, p: &LogicalProperty) -> Option<NodeId> {
        self.props.get(p)
    }

    /// Rebuilds the NFSM keeping only nodes with `keep[node] == true`,
    /// renumbering densely. Edge targets pointing at dropped nodes must
    /// already have been redirected by the caller. Node 0 must be kept.
    pub(crate) fn compact(self, keep: &[bool]) -> Nfsm {
        assert!(keep[0], "the empty-ordering node is permanent");
        let mut remap: Vec<Option<NodeId>> = vec![None; self.props.len()];
        let mut props = Interner::new();
        let mut info = Vec::new();
        for (old, p) in self.props.iter() {
            if keep[old as usize] {
                let new = props.intern(p.clone());
                remap[old as usize] = Some(new);
                info.push(self.info[old as usize]);
            }
        }
        let map_list = |list: &[NodeId]| -> Vec<NodeId> {
            let mut v: Vec<NodeId> = list.iter().filter_map(|&t| remap[t as usize]).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        let mut eps = vec![Vec::new(); props.len()];
        let mut edges = vec![vec![Vec::new(); self.num_symbols]; props.len()];
        #[allow(clippy::needless_range_loop)] // old indexes three parallel tables
        for old in 0..self.props.len() {
            let Some(new) = remap[old] else { continue };
            eps[new as usize] = map_list(&self.eps[old]);
            for sym in 0..self.num_symbols {
                edges[new as usize][sym] = map_list(&self.edges[old][sym]);
            }
        }
        Nfsm {
            props,
            info,
            eps,
            edges,
            num_symbols: self.num_symbols,
        }
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

    fn g(ids: &[AttrId]) -> Grouping {
        Grouping::new(ids.to_vec())
    }

    /// The paper's running example before pruning (Figs. 4–5): interesting
    /// orders (b), (a,b) produced and (a,b,c) tested; FDs {b→c}, {b→d}.
    fn running_example() -> (InputSpec, Vec<FdSet>, EqClasses) {
        let mut spec = InputSpec::new();
        spec.add_produced(o(&[B]));
        spec.add_produced(o(&[A, B]));
        spec.add_tested(o(&[A, B, C]));
        spec.add_fd_set(vec![Fd::functional(&[B], C)]);
        spec.add_fd_set(vec![Fd::functional(&[B], D)]);
        let fd_sets = spec.fd_sets().to_vec();
        let eq = EqClasses::from_fds(fd_sets.iter().flat_map(|s| s.fds().iter()));
        (spec, fd_sets, eq)
    }

    #[test]
    fn running_example_with_filter_matches_fig7_nodes() {
        // Fig. 7 is the NFSM *after* step 2(b) removed {b→d}; with the
        // dependency still present the admission filter keeps the
        // removable-d orderings (a,b,d,c)/(a,b,d) alive, as it must.
        let (spec, _, eq) = running_example();
        let (fd_sets, removed) = crate::prune::prune_fds(&spec, &eq, &PruneConfig::default());
        assert_eq!(removed, 1);
        let nfsm = Nfsm::build(&spec, &fd_sets, &eq, &PruneConfig::default()).unwrap();
        // Fig. 7 nodes: (a), (b), (a,b), (a,b,c)  — plus our explicit ().
        // (b,c) and anything with d is kept out by the prefix filter
        // (d never occurs in an interesting order, (b,c) extends nothing).
        let expected = [o(&[A]), o(&[B]), o(&[A, B]), o(&[A, B, C])];
        assert_eq!(nfsm.num_nodes(), expected.len() + 1);
        for e in &expected {
            assert!(nfsm.node_of(e).is_some(), "missing node {e:?}");
        }
        // The {b→c} edge from (a,b) to (a,b,c) of Fig. 7.
        let ab = nfsm.node_of(&o(&[A, B])).unwrap();
        let abc = nfsm.node_of(&o(&[A, B, C])).unwrap();
        assert_eq!(nfsm.edges[ab as usize][0], vec![abc]);
        // No {b→d} edges anywhere.
        for n in 0..nfsm.num_nodes() {
            assert!(nfsm.edges[n][1].is_empty());
        }
    }

    #[test]
    fn running_example_without_heuristics_matches_fig5_nodes() {
        let (spec, fd_sets, eq) = running_example();
        let nfsm = Nfsm::build(&spec, &fd_sets, &eq, &PruneConfig::none()).unwrap();
        // Fig. 5 draws (a), (b), (b,c), (a,b), (a,b,c) (d-orderings exist
        // too since {b→d} has not been filtered in step 2(b) yet).
        for e in [o(&[A]), o(&[B]), o(&[B, C]), o(&[A, B]), o(&[A, B, C])] {
            assert!(nfsm.node_of(&e).is_some(), "missing node {e:?}");
        }
        // (b) --{b→c}--> (b,c) edge of Fig. 5.
        let b = nfsm.node_of(&o(&[B])).unwrap();
        let bc = nfsm.node_of(&o(&[B, C])).unwrap();
        assert!(nfsm.edges[b as usize][0].contains(&bc));
        // {b→d} creates d-orderings, e.g. (a,b,d).
        assert!(nfsm.node_of(&o(&[A, B, D])).is_some());
    }

    #[test]
    fn no_grouping_nodes_without_interesting_groupings() {
        let (spec, fd_sets, eq) = running_example();
        let nfsm = Nfsm::build(&spec, &fd_sets, &eq, &PruneConfig::none()).unwrap();
        for node in 0..nfsm.num_nodes() as u32 {
            assert!(
                nfsm.props.resolve(node).as_grouping().is_none(),
                "pure ordering spec grew a grouping node"
            );
        }
    }

    #[test]
    fn interesting_grouping_gets_node_and_eps_from_orderings() {
        let mut spec = InputSpec::new();
        spec.add_produced(o(&[A, B]));
        spec.add_tested(g(&[A, B]));
        spec.add_fd_set(vec![Fd::functional(&[B], C)]);
        let fd_sets = spec.fd_sets().to_vec();
        let eq = EqClasses::new();
        let nfsm = Nfsm::build(&spec, &fd_sets, &eq, &PruneConfig::default()).unwrap();
        let gid = nfsm.node_of_grouping(&g(&[A, B])).unwrap();
        assert!(nfsm.info[gid as usize].interesting);
        // The ordering (a,b) ε-steps into its full-prefix-set grouping.
        let ab = nfsm.node_of(&o(&[A, B])).unwrap();
        assert!(nfsm.eps[ab as usize].contains(&gid));
        // The grouping node itself only ε-steps to node 0.
        assert_eq!(nfsm.eps[gid as usize], vec![0]);
    }

    #[test]
    fn grouping_edges_use_set_rules() {
        // Interesting grouping {a,b}, produced ordering (a), FD a→b:
        // the grouping {a} (seeded from the ordering) must derive {a,b}
        // in one symbol — even though the *ordering* filter would drop
        // the ordering (a,b) as uninteresting.
        let mut spec = InputSpec::new();
        spec.add_produced(o(&[A]));
        spec.add_tested(g(&[A, B]));
        spec.add_fd_set(vec![Fd::functional(&[A], B)]);
        let fd_sets = spec.fd_sets().to_vec();
        let eq = EqClasses::new();
        let nfsm = Nfsm::build(&spec, &fd_sets, &eq, &PruneConfig::default()).unwrap();
        let ga = nfsm.node_of_grouping(&g(&[A])).expect("seeded grouping");
        let gab = nfsm.node_of_grouping(&g(&[A, B])).unwrap();
        assert!(nfsm.edges[ga as usize][0].contains(&gab));
    }

    fn ht(head: &[AttrId], tail: &[AttrId]) -> HeadTail {
        HeadTail::new(Grouping::new(head.to_vec()), Ordering::new(tail.to_vec()))
    }

    #[test]
    fn no_pair_nodes_without_interesting_pairs() {
        // Ordering + grouping specs must build automata with no pair
        // node anywhere — the byte-identical guarantee for the two
        // established pipelines.
        let mut spec = InputSpec::new();
        spec.add_produced(o(&[A, B]));
        spec.add_produced(g(&[A, B]));
        spec.add_tested(g(&[A, B, C]));
        spec.add_fd_set(vec![Fd::functional(&[B], C)]);
        let fd_sets = spec.fd_sets().to_vec();
        let eq = EqClasses::new();
        for config in [PruneConfig::default(), PruneConfig::none()] {
            let nfsm = Nfsm::build(&spec, &fd_sets, &eq, &config).unwrap();
            for node in 0..nfsm.num_nodes() as u32 {
                assert!(
                    nfsm.props.resolve(node).as_head_tail().is_none(),
                    "pair node materialized without interesting pairs"
                );
            }
        }
    }

    #[test]
    fn interesting_pair_reached_from_ordering_and_grouping() {
        // Interesting pair {a}(b): a stream sorted by (a,b) implies it
        // (ε through the decomposition), and a stream grouped by {a}
        // derives it under a→b (the grouping-tails crossover).
        let mut spec = InputSpec::new();
        spec.add_produced(o(&[A, B]));
        spec.add_produced(g(&[A]));
        spec.add_tested(ht(&[A], &[B]));
        spec.add_fd_set(vec![Fd::functional(&[A], B)]);
        let fd_sets = spec.fd_sets().to_vec();
        let eq = EqClasses::new();
        let nfsm = Nfsm::build(&spec, &fd_sets, &eq, &PruneConfig::default()).unwrap();
        let pair = nfsm.node_of_head_tail(&ht(&[A], &[B])).unwrap();
        assert!(nfsm.info[pair as usize].interesting);
        // ε: (a,b) implies its decomposition {a}(b).
        let ab = nfsm.node_of(&o(&[A, B])).unwrap();
        assert!(nfsm.eps[ab as usize].contains(&pair));
        // FD edge: {a} --{a→b}--> {a}(b).
        let ga = nfsm.node_of_grouping(&g(&[A])).unwrap();
        assert!(nfsm.edges[ga as usize][0].contains(&pair));
        // The pair's own ε covers node 0 and its head grouping (plus
        // any materialized absorbed-prefix grouping) — never an
        // ordering node.
        assert!(nfsm.eps[pair as usize].contains(&0));
        assert!(nfsm.eps[pair as usize].contains(&ga));
        for &t in &nfsm.eps[pair as usize] {
            assert!(
                nfsm.props.resolve(t).as_ordering().is_none() || t == 0,
                "a pair must not imply an ordering"
            );
        }
    }

    #[test]
    fn pair_eps_cover_sub_decompositions() {
        // {a}(b,c) implies {a}(b), {a,b}(c), {a,b} and {a,b,c}.
        let mut spec = InputSpec::new();
        spec.add_produced(o(&[A, B, C]));
        spec.add_tested(ht(&[A], &[B, C]));
        spec.add_tested(ht(&[A], &[B]));
        spec.add_tested(ht(&[A, B], &[C]));
        spec.add_tested(g(&[A, B, C]));
        spec.add_fd_set(vec![Fd::functional(&[B], C)]);
        let fd_sets = spec.fd_sets().to_vec();
        let eq = EqClasses::new();
        let nfsm = Nfsm::build(&spec, &fd_sets, &eq, &PruneConfig::default()).unwrap();
        let pair = nfsm.node_of_head_tail(&ht(&[A], &[B, C])).unwrap();
        for implied in [
            nfsm.node_of_head_tail(&ht(&[A], &[B])).unwrap(),
            nfsm.node_of_head_tail(&ht(&[A, B], &[C])).unwrap(),
            nfsm.node_of_grouping(&g(&[A, B, C])).unwrap(),
        ] {
            assert!(
                nfsm.eps[pair as usize].contains(&implied),
                "missing ε to node {implied}"
            );
        }
    }

    #[test]
    fn eps_edges_point_to_all_prefixes() {
        let (spec, fd_sets, eq) = running_example();
        let nfsm = Nfsm::build(&spec, &fd_sets, &eq, &PruneConfig::default()).unwrap();
        let abc = nfsm.node_of(&o(&[A, B, C])).unwrap();
        let ab = nfsm.node_of(&o(&[A, B])).unwrap();
        let a = nfsm.node_of(&o(&[A])).unwrap();
        let mut eps = nfsm.eps[abc as usize].clone();
        eps.sort_unstable();
        let mut expect = vec![0, a, ab];
        expect.sort_unstable();
        assert_eq!(eps, expect);
    }

    #[test]
    fn interesting_prefix_closure_is_marked() {
        let (spec, fd_sets, eq) = running_example();
        let nfsm = Nfsm::build(&spec, &fd_sets, &eq, &PruneConfig::default()).unwrap();
        // (a) is interesting (prefix of (a,b)) but not produced.
        let a = nfsm.node_of(&o(&[A])).unwrap();
        assert!(nfsm.info[a as usize].interesting);
        assert!(!nfsm.info[a as usize].produced);
        let b = nfsm.node_of(&o(&[B])).unwrap();
        assert!(nfsm.info[b as usize].produced);
    }

    #[test]
    fn node_cap_is_enforced() {
        let (spec, fd_sets, eq) = running_example();
        let config = PruneConfig {
            max_nodes: 3,
            ..PruneConfig::default()
        };
        match Nfsm::build(&spec, &fd_sets, &eq, &config) {
            Err(BuildError::TooManyNodes(3)) => {}
            Err(e) => panic!("wrong error: {e}"),
            Ok(_) => panic!("expected the node cap to trip"),
        }
    }

    #[test]
    fn transitive_edges_within_one_symbol() {
        // One operator introducing {a→b, b→c} must reach (a,b,c) in a
        // single transition.
        let mut spec = InputSpec::new();
        spec.add_produced(o(&[A]));
        spec.add_tested(o(&[A, B, C]));
        spec.add_fd_set(vec![Fd::functional(&[A], B), Fd::functional(&[B], C)]);
        let fd_sets = spec.fd_sets().to_vec();
        let eq = EqClasses::new();
        let nfsm = Nfsm::build(&spec, &fd_sets, &eq, &PruneConfig::default()).unwrap();
        let a = nfsm.node_of(&o(&[A])).unwrap();
        let abc = nfsm.node_of(&o(&[A, B, C])).unwrap();
        assert!(nfsm.edges[a as usize][0].contains(&abc));
    }
}
