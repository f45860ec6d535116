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
//!
//! FD edges are sparse — a node has edges under the few symbols that
//! mention one of its attributes — and stored as per-node runs
//! ([`Nfsm::runs`], [`Nfsm::targets`]). The traversal order (nodes in
//! worklist order, symbols ascending, derivations in rule order) is the
//! numbering contract; the tables behind it are free.

use crate::derive::{expand_sets, materialize, view, Applicability, DeriveCtx, Scratch};
use crate::eqclass::EqClasses;
use crate::fd::FdSet;
use crate::filter::{GroupingFilter, HeadTailFilter, PrefixFilter};
use crate::ordering::Ordering;
use crate::property::{Grouping, HeadTail, LogicalProperty};
use crate::prune::PruneConfig;
use crate::spec::InputSpec;
use ofw_catalog::AttrId;
use ofw_common::{Interner, SliceInterner};

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
    /// FD edges, sparse: per node its `(symbol, targets)` runs in
    /// ascending symbol order, every run non-empty.
    pub(crate) edges: Vec<Vec<Run>>,
    /// Number of FD-set symbols (fixed for the query).
    pub num_symbols: usize,
}

/// The targets of one node under one symbol, ascending, duplicate-free.
pub(crate) type Run = (u32, Box<[NodeId]>);

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

/// The automaton under construction plus what only construction needs.
struct Builder<'a> {
    nfsm: Nfsm,
    /// `(head_len, attrs)` view → node id. Ids coincide with
    /// `nfsm.props` handles; a lookup allocates nothing, so only *new*
    /// nodes are ever materialized.
    index: SliceInterner<AttrId>,
    config: &'a PruneConfig,
}

impl Builder<'_> {
    /// Interns the property a view denotes as a node, growing the side
    /// tables; errors out past the configured cap.
    fn add_node(&mut self, head_len: usize, attrs: &[AttrId]) -> Result<NodeId, BuildError> {
        let (id, new) = self.index.intern(head_len as u32, attrs);
        if new {
            if self.index.len() > self.config.max_nodes {
                return Err(BuildError::TooManyNodes(self.config.max_nodes));
            }
            let handle = self.nfsm.props.intern(materialize(head_len, attrs));
            debug_assert_eq!(handle, id);
            self.nfsm.info.push(NodeInfo::default());
            self.nfsm.eps.push(Vec::new());
            self.nfsm.edges.push(Vec::new());
        }
        Ok(id)
    }
}

/// The lengths of the proper prefixes that are nodes of their own: an
/// ordering's (a view without a head), nobody else's.
fn prefix_lens(head_len: usize, len: usize) -> std::ops::Range<usize> {
    1..if head_len == 0 { len } else { 0 }
}

/// Builds in `view` the head set `head ∪ tail[..absorb]` followed by
/// the tail `tail[absorb..cut]`.
fn absorb_into(
    view: &mut Vec<AttrId>,
    head: &[AttrId],
    tail: &[AttrId],
    absorb: usize,
    cut: usize,
) {
    view.clear();
    view.extend_from_slice(head);
    view.extend_from_slice(&tail[..absorb]);
    view.sort_unstable();
    view.extend_from_slice(&tail[absorb..cut]);
}

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
        // Which symbols can fire on a node: the others derive nothing
        // from it and are never tried.
        let symbols = Applicability::over_sets(fd_sets);

        let mut b = Builder {
            nfsm: Nfsm {
                props: Interner::new(),
                info: Vec::new(),
                eps: Vec::new(),
                edges: Vec::new(),
                num_symbols: fd_sets.len(),
            },
            index: SliceInterner::default(),
            config,
        };
        // Node 0: the empty ordering.
        let root = b.add_node(0, &[])?;
        debug_assert_eq!(root, 0);

        // Interesting nodes: prefix closure of the interesting orderings
        // plus the interesting groupings as-is.
        for p in spec.interesting() {
            let (head_len, attrs) = view(p);
            let id = b.add_node(head_len, attrs)?;
            b.nfsm.info[id as usize].interesting = true;
            for len in prefix_lens(head_len, attrs.len()) {
                let pid = b.add_node(0, &attrs[..len])?;
                b.nfsm.info[pid as usize].interesting = true;
            }
        }
        for p in spec.produced() {
            let (head_len, attrs) = view(p);
            let id = b.add_node(head_len, attrs)?;
            b.nfsm.info[id as usize].produced = true;
        }

        // Worklist closure: compute FD edges, materializing new nodes
        // (and, for orderings, their prefixes and prefix-set groupings)
        // as they appear.
        let mut scratch = Scratch::default();
        let mut applicable: Vec<u32> = Vec::new();
        let (mut cur, mut implied): (Vec<AttrId>, Vec<AttrId>) = (Vec::new(), Vec::new());
        let mut targets: Vec<NodeId> = Vec::new();
        let mut node: NodeId = 0;
        while (node as usize) < b.index.len() {
            let (head_len, attrs) = b.index.resolve(node);
            let head_len = head_len as usize;
            cur.clear();
            cur.extend_from_slice(attrs);
            if head_len == 0 {
                // Seed the grouping nodes this ordering implies (its
                // prefix attribute sets) — the crossover sources for
                // grouping derivation — and the pair nodes: every
                // (prefix set, continuation) decomposition, so pair
                // derivation has its crossover sources too (a pair can
                // reach properties the positional ordering rules
                // cannot, e.g. inserting a head-determined attribute at
                // the tail front). The first `split` attributes become
                // the head set, `cur[split..end]` the tail: groupings
                // first, then pairs in `HeadTail::decompositions` order.
                let n = cur.len();
                let sets = (1..=n).map(|l| (l, l)).filter(|_| grouping_mode);
                let pairs = (1..n).flat_map(|split| (split + 1..=n).map(move |end| (split, end)));
                for (split, end) in sets.chain(pairs.filter(|_| headtail_mode)) {
                    absorb_into(&mut implied, &[], &cur, split, end);
                    let filter = if split == end { &gfilter } else { &hfilter.0 };
                    if filter.admits_attrs(&implied) {
                        b.add_node(split, &implied)?;
                    }
                }
            }
            symbols.of(&cur, &mut applicable);
            for &sym in &applicable {
                let fds = fd_sets[sym as usize].fds();
                if head_len == 0 {
                    ctx.expand(&mut scratch, &cur, fds, None);
                } else {
                    // Pure grouping pipeline: the set rules alone.
                    // With pairs in play, groupings additionally
                    // derive pairs (within-group constants become
                    // one-attribute tails) and pairs derive across
                    // both components — the mixed closure.
                    debug_assert!(headtail_mode || head_len == cur.len());
                    let hfilter = headtail_mode.then_some(&hfilter);
                    expand_sets(&mut scratch, head_len, &cur, fds, None, &gfilter, hfilter);
                }
                targets.clear();
                for (head_len, derived) in scratch.reported() {
                    // Materialize the target and, for an ordering, its
                    // prefixes.
                    for len in prefix_lens(head_len, derived.len()) {
                        b.add_node(0, &derived[..len])?;
                    }
                    targets.push(b.add_node(head_len, derived)?);
                }
                targets.sort_unstable();
                targets.dedup();
                if !targets.is_empty() {
                    b.nfsm.edges[node as usize].push((sym, targets[..].into()));
                }
            }
            node += 1;
        }
        // ε-edges: node 0 and every existing node a view `(H, t₁..tₙ)`
        // implies by truncating its tail and/or absorbing a tail prefix
        // into the head — `{H ∪ t₁..tₐ}(tₐ₊₁..t_c)` for all `a ≤ c` but
        // itself. For an ordering these are its proper prefixes, its
        // prefix-set groupings and its (prefix set, continuation) pairs;
        // for a pair its sub-decompositions and absorbed heads.
        let mut eps = targets;
        for node in 0..b.index.len() as NodeId {
            let (head_len, attrs) = b.index.resolve(node);
            let (head, tail) = attrs.split_at(head_len as usize);
            eps.clear();
            eps.extend((node != 0).then_some(0));
            let shapes = (0..=tail.len()).flat_map(|a| (a..=tail.len()).map(move |c| (a, c)));
            for (absorb, cut) in shapes.filter(|&shape| shape != (0, tail.len())) {
                absorb_into(&mut implied, head, tail, absorb, cut);
                eps.extend(b.index.get((head.len() + absorb) as u32, &implied));
            }
            eps.sort_unstable();
            eps.dedup();
            b.nfsm.eps[node as usize] = eps.clone();
        }
        Ok(b.nfsm)
    }

    /// Number of nodes, counting the implicit empty-ordering node.
    pub fn num_nodes(&self) -> usize {
        self.props.len()
    }

    /// Total FD-edge count (each target counted once).
    pub fn num_edges(&self) -> usize {
        let runs = self.edges.iter().flatten();
        runs.map(|(_, targets)| targets.len()).sum()
    }

    /// The FD edges of `node`: its `(symbol, targets)` runs in
    /// ascending symbol order; every run is non-empty, ascending and
    /// duplicate-free.
    pub fn runs(&self, node: NodeId) -> impl Iterator<Item = (usize, &[NodeId])> + Clone {
        let runs = self.edges[node as usize].iter();
        runs.map(|(sym, targets)| (*sym as usize, &targets[..]))
    }

    /// FD-edge targets of `node` under symbol `sym`, ascending and
    /// duplicate-free (empty when the symbol derives nothing there).
    pub fn targets(&self, node: NodeId, sym: usize) -> &[NodeId] {
        let runs = &self.edges[node as usize];
        let run = runs.binary_search_by_key(&(sym as u32), |run| run.0);
        run.map_or(&[], |at| &runs[at].1)
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

    /// The ε and FD tables of `nodes` (in order; `false` = the node
    /// loses its lists), every target passed through `map` — which
    /// appends what the target becomes, nothing to drop it — and every
    /// list re-sorted and deduplicated.
    pub(crate) fn mapped(
        &self,
        nodes: impl Iterator<Item = (NodeId, bool)>,
        map: impl Fn(NodeId, &mut Vec<NodeId>),
    ) -> (Vec<Vec<NodeId>>, Vec<Vec<Run>>) {
        let mut list: Vec<NodeId> = Vec::new();
        let mut map_list = |targets: &[NodeId]| {
            list.clear();
            targets.iter().for_each(|&t| map(t, &mut list));
            list.sort_unstable();
            list.dedup();
            list.clone()
        };
        let tables = nodes.map(|(node, with_lists)| {
            let eps: &[NodeId] = if with_lists {
                &self.eps[node as usize]
            } else {
                &[]
            };
            let runs = self.runs(node).filter(|_| with_lists);
            let runs = runs.map(|(sym, targets)| (sym as u32, map_list(targets).into()));
            let runs: Vec<Run> = runs.filter(|run: &Run| !run.1.is_empty()).collect();
            (map_list(eps), runs)
        });
        tables.unzip()
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
                remap[old as usize] = Some(props.intern(p.clone()));
                info.push(self.info[old as usize]);
            }
        }
        let kept = (0..self.num_nodes() as NodeId).filter(|&n| keep[n as usize]);
        let (eps, edges) = self.mapped(kept.map(|n| (n, true)), |t, out| {
            out.extend(remap[t as usize]);
        });
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
        assert_eq!(nfsm.targets(ab, 0), vec![abc]);
        // No {b→d} edges anywhere.
        for n in 0..nfsm.num_nodes() {
            assert!(nfsm.targets(n as NodeId, 1).is_empty());
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
        assert!(nfsm.targets(b, 0).contains(&bc));
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
        assert!(nfsm.targets(ga, 0).contains(&gab));
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
        assert!(nfsm.targets(ga, 0).contains(&pair));
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
        assert!(nfsm.targets(a, 0).contains(&abc));
    }
}
