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
//! mention one of its attributes — and read as per-node runs
//! ([`Nfsm::runs`], [`Nfsm::targets`]). Both edge kinds live in flat
//! offset tables, one allocation per table rather than per node or run:
//! the ε-targets of every node in one array, the `(symbol, start)` runs
//! of every node in another, over one array of FD targets. The worklist
//! visits nodes in id order and appends each node's runs in symbol
//! order, and the ε pass runs in node order, so the build only appends;
//! the pruning passes rewrite whole tables. The traversal order (nodes
//! in worklist order, symbols ascending, derivations in rule order) is
//! the numbering contract; the tables behind it are free.

use crate::derive::{expand_sets, materialize, view, Applicability, DeriveCtx, Scratch};
use crate::eqclass::EqClasses;
use crate::fd::FdSet;
use crate::filter::Admission;
use crate::property::LogicalProperty;
use crate::prune::PruneConfig;
use crate::spec::InputSpec;
use ofw_catalog::AttrId;
use ofw_common::SliceInterner;

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
    /// Node id ↔ the `(head_len, attrs)` view of its property (node 0
    /// is the empty ordering); see [`Nfsm::prop`].
    nodes: SliceInterner<AttrId>,
    /// Per-node classification.
    pub info: Vec<NodeInfo>,
    /// ε- and FD edges; see [`Nfsm::eps`] and [`Nfsm::runs`].
    pub(crate) edges: Edges,
    /// Number of FD-set symbols (fixed for the query).
    pub num_symbols: usize,
}

/// The edges of every node as flat offset tables, filled node by node
/// in id order.
pub(crate) struct Edges {
    /// `eps[eps_at[v]..eps_at[v + 1]]`: node `v`'s ε-targets, ascending.
    eps_at: Vec<u32>,
    eps: Vec<NodeId>,
    /// `runs[runs_at[v]..runs_at[v + 1]]`: node `v`'s FD runs as
    /// `(symbol, start)`, symbols ascending. A run's targets — non-empty,
    /// ascending, duplicate-free — reach from its start to the next
    /// run's (the last one's to the end of `targets`).
    runs_at: Vec<u32>,
    runs: Vec<(u32, u32)>,
    targets: Vec<NodeId>,
}

impl Edges {
    fn new() -> Self {
        Edges {
            eps_at: vec![0],
            eps: Vec::new(),
            runs_at: vec![0],
            runs: Vec::new(),
            targets: Vec::new(),
        }
    }

    /// Appends a run to the node whose runs are open.
    fn push_run(&mut self, sym: u32, targets: &[NodeId]) {
        self.runs.push((sym, offset(self.targets.len())));
        self.targets.extend_from_slice(targets);
    }

    /// Closes the open node's runs; the next run opens the next node's.
    fn end_runs(&mut self) {
        self.runs_at.push(offset(self.runs.len()));
    }

    /// Appends the next node's ε-targets.
    fn push_eps(&mut self, targets: &[NodeId]) {
        self.eps.extend_from_slice(targets);
        self.eps_at.push(offset(self.eps.len()));
    }

    /// Run `i` of the whole table: its symbol and targets.
    fn run(&self, i: usize) -> (usize, &[NodeId]) {
        let (sym, start) = self.runs[i];
        let end = self
            .runs
            .get(i + 1)
            .map_or(self.targets.len(), |r| r.1 as usize);
        (sym as usize, &self.targets[start as usize..end])
    }

    /// The indexes of `node`'s runs in the whole table.
    fn runs_of(&self, node: NodeId) -> std::ops::Range<usize> {
        self.runs_at[node as usize] as usize..self.runs_at[node as usize + 1] as usize
    }
}

/// A position in an edge table as stored.
fn offset(len: usize) -> u32 {
    u32::try_from(len).expect("an NFSM edge table holds fewer than 2^32 entries")
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
        // Groupings only enter the automaton when the query declares
        // interesting groupings (or pairs) — otherwise the build is
        // identical to the pure ordering pipeline. Head/tail pairs are
        // gated the same way one level up: without interesting pairs the
        // build is identical to the ordering + grouping pipeline.
        let admission = Admission::new(spec, &all_fds, eq, config.prefix_filter);
        let headtail_mode = admission.has_pairs;
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
            filter: &admission.orders,
            max_len,
        };
        // Which symbols can fire on a node: the others derive nothing
        // from it and are never tried.
        let symbols = Applicability::over_sets(fd_sets);

        let mut nfsm = Nfsm {
            nodes: SliceInterner::default(),
            info: Vec::new(),
            edges: Edges::new(),
            num_symbols: fd_sets.len(),
        };
        let cap = config.max_nodes;
        // Node 0: the empty ordering.
        let root = nfsm.add_node(cap, 0, &[])?;
        debug_assert_eq!(root, 0);

        // Interesting nodes: prefix closure of the interesting orderings
        // plus the interesting groupings as-is.
        for (head_len, attrs) in spec.views() {
            let id = nfsm.add_node(cap, head_len, attrs)?;
            nfsm.info[id as usize].interesting = true;
            for len in prefix_lens(head_len, attrs.len()) {
                let pid = nfsm.add_node(cap, 0, &attrs[..len])?;
                nfsm.info[pid as usize].interesting = true;
            }
        }
        for (head_len, attrs) in spec.produced().iter().map(view) {
            let id = nfsm.add_node(cap, head_len, attrs)?;
            nfsm.info[id as usize].produced = true;
        }

        // Worklist closure: compute FD edges, materializing new nodes
        // (and, for orderings, their prefixes and prefix-set groupings)
        // as they appear.
        let mut scratch = Scratch::default();
        let mut applicable: Vec<u32> = Vec::new();
        let (mut cur, mut implied): (Vec<AttrId>, Vec<AttrId>) = (Vec::new(), Vec::new());
        let mut targets: Vec<NodeId> = Vec::new();
        let mut node: NodeId = 0;
        while (node as usize) < nfsm.nodes.len() {
            let (head_len, attrs) = nfsm.nodes.resolve(node);
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
                let sets = (1..=n).map(|l| (l, l)).filter(|_| admission.has_sets);
                let pairs = (1..n).flat_map(|split| (split + 1..=n).map(move |end| (split, end)));
                for (split, end) in sets.chain(pairs.filter(|_| headtail_mode)) {
                    absorb_into(&mut implied, &[], &cur, split, end);
                    let filter = if split == end {
                        &admission.groupings
                    } else {
                        &admission.pairs
                    };
                    if filter.admits(&implied) {
                        nfsm.add_node(cap, split, &implied)?;
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
                    let pairs = headtail_mode.then_some(&admission.pairs);
                    let groupings = &admission.groupings;
                    expand_sets(&mut scratch, head_len, &cur, fds, None, groupings, pairs);
                }
                targets.clear();
                for (head_len, derived) in scratch.reported() {
                    // Materialize the target and, for an ordering, its
                    // prefixes.
                    for len in prefix_lens(head_len, derived.len()) {
                        nfsm.add_node(cap, 0, &derived[..len])?;
                    }
                    targets.push(nfsm.add_node(cap, head_len, derived)?);
                }
                targets.sort_unstable();
                targets.dedup();
                if !targets.is_empty() {
                    nfsm.edges.push_run(sym, &targets);
                }
            }
            nfsm.edges.end_runs();
            node += 1;
        }
        // ε-edges: node 0 and every existing node a view `(H, t₁..tₙ)`
        // implies by truncating its tail and/or absorbing a tail prefix
        // into the head — `{H ∪ t₁..tₐ}(tₐ₊₁..t_c)` for all `a ≤ c` but
        // itself. For an ordering these are its proper prefixes, its
        // prefix-set groupings and its (prefix set, continuation) pairs;
        // for a pair its sub-decompositions and absorbed heads.
        let mut eps = targets;
        for node in 0..nfsm.nodes.len() as NodeId {
            let (head_len, attrs) = nfsm.nodes.resolve(node);
            let (head, tail) = attrs.split_at(head_len as usize);
            eps.clear();
            eps.extend((node != 0).then_some(0));
            let shapes = (0..=tail.len()).flat_map(|a| (a..=tail.len()).map(move |c| (a, c)));
            for (absorb, cut) in shapes.filter(|&shape| shape != (0, tail.len())) {
                absorb_into(&mut implied, head, tail, absorb, cut);
                eps.extend(nfsm.nodes.get((head.len() + absorb) as u32, &implied));
            }
            eps.sort_unstable();
            eps.dedup();
            nfsm.edges.push_eps(&eps);
        }
        Ok(nfsm)
    }

    /// Interns the property a view denotes as a node, growing the side
    /// tables; errors out past `cap` nodes. A lookup allocates nothing,
    /// and no property is materialized.
    fn add_node(
        &mut self,
        cap: usize,
        head_len: usize,
        attrs: &[AttrId],
    ) -> Result<NodeId, BuildError> {
        let (id, new) = self.nodes.intern(head_len as u32, attrs);
        if new {
            if self.nodes.len() > cap {
                return Err(BuildError::TooManyNodes(cap));
            }
            self.info.push(NodeInfo::default());
        }
        Ok(id)
    }

    /// Number of nodes, counting the implicit empty-ordering node.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The `(head_len, attrs)` view of `node`'s property.
    pub(crate) fn view(&self, node: NodeId) -> (usize, &[AttrId]) {
        let (head_len, attrs) = self.nodes.resolve(node);
        (head_len as usize, attrs)
    }

    /// The property of `node`, materialized.
    pub fn prop(&self, node: NodeId) -> LogicalProperty {
        let (head_len, attrs) = self.view(node);
        materialize(head_len, attrs)
    }

    /// The node of a property of any kind, if it has one.
    pub fn node(&self, p: &LogicalProperty) -> Option<NodeId> {
        let (head_len, attrs) = view(p);
        self.nodes.get(head_len as u32, attrs)
    }

    /// Total FD-edge count (each target counted once).
    pub fn num_edges(&self) -> usize {
        self.edges.targets.len()
    }

    /// The ε-targets of `node`, ascending: an ordering's proper prefixes
    /// and prefix-set groupings, a view's sub-decompositions, and node 0
    /// (for every node but node 0 itself).
    pub fn eps(&self, node: NodeId) -> &[NodeId] {
        let at = &self.edges.eps_at;
        &self.edges.eps[at[node as usize] as usize..at[node as usize + 1] as usize]
    }

    /// The FD edges of `node`: its `(symbol, targets)` runs in
    /// ascending symbol order; every run is non-empty, ascending and
    /// duplicate-free.
    pub fn runs(&self, node: NodeId) -> impl Iterator<Item = (usize, &[NodeId])> + Clone {
        self.edges.runs_of(node).map(|i| self.edges.run(i))
    }

    /// FD-edge targets of `node` under symbol `sym`, ascending and
    /// duplicate-free (empty when the symbol derives nothing there).
    pub fn targets(&self, node: NodeId, sym: usize) -> &[NodeId] {
        let range = self.edges.runs_of(node);
        let runs = &self.edges.runs[range.clone()];
        let run = runs.binary_search_by_key(&(sym as u32), |run| run.0);
        run.map_or(&[], |at| self.edges.run(range.start + at).1)
    }

    /// The edge tables of `nodes` (in order; `false` = the node loses
    /// its edges), every target passed through `map` — which appends
    /// what the target becomes, nothing to drop it — and every list
    /// re-sorted and deduplicated; a run left empty is dropped.
    pub(crate) fn mapped(
        &self,
        nodes: impl Iterator<Item = (NodeId, bool)>,
        mut map: impl FnMut(NodeId, &mut Vec<NodeId>),
    ) -> Edges {
        let mut edges = Edges::new();
        let mut list: Vec<NodeId> = Vec::new();
        let mut map_list = |targets: &[NodeId], list: &mut Vec<NodeId>| {
            list.clear();
            targets.iter().for_each(|&t| map(t, list));
            list.sort_unstable();
            list.dedup();
        };
        for (node, with_edges) in nodes {
            for (sym, targets) in self.runs(node).filter(|_| with_edges) {
                map_list(targets, &mut list);
                if !list.is_empty() {
                    edges.push_run(sym as u32, &list);
                }
            }
            edges.end_runs();
            map_list(if with_edges { self.eps(node) } else { &[] }, &mut list);
            edges.push_eps(&list);
        }
        edges
    }

    /// Rebuilds the NFSM keeping only nodes with `keep[node] == true`,
    /// renumbering densely. Edge targets pointing at dropped nodes must
    /// already have been redirected by the caller. Node 0 must be kept.
    pub(crate) fn compact(self, keep: &[bool]) -> Nfsm {
        assert!(keep[0], "the empty-ordering node is permanent");
        let mut remap: Vec<Option<NodeId>> = vec![None; self.num_nodes()];
        let mut nodes = SliceInterner::default();
        let mut info = Vec::new();
        for old in (0..self.num_nodes() as NodeId).filter(|&n| keep[n as usize]) {
            let (head_len, attrs) = self.nodes.resolve(old);
            remap[old as usize] = Some(nodes.intern(head_len, attrs).0);
            info.push(self.info[old as usize]);
        }
        let kept = (0..self.num_nodes() as NodeId).filter(|&n| keep[n as usize]);
        let edges = self.mapped(kept.map(|n| (n, true)), |t, out| {
            out.extend(remap[t as usize]);
        });
        Nfsm {
            nodes,
            info,
            edges,
            num_symbols: self.num_symbols,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fd::Fd;
    use crate::ordering::Ordering;
    use crate::property::{Grouping, HeadTail};

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
            assert!(nfsm.node(&e.clone().into()).is_some(), "missing node {e:?}");
        }
        // The {b→c} edge from (a,b) to (a,b,c) of Fig. 7.
        let ab = nfsm.node(&o(&[A, B]).into()).unwrap();
        let abc = nfsm.node(&o(&[A, B, C]).into()).unwrap();
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
            assert!(nfsm.node(&e.clone().into()).is_some(), "missing node {e:?}");
        }
        // (b) --{b→c}--> (b,c) edge of Fig. 5.
        let b = nfsm.node(&o(&[B]).into()).unwrap();
        let bc = nfsm.node(&o(&[B, C]).into()).unwrap();
        assert!(nfsm.targets(b, 0).contains(&bc));
        // {b→d} creates d-orderings, e.g. (a,b,d).
        assert!(nfsm.node(&o(&[A, B, D]).into()).is_some());
    }

    #[test]
    fn no_grouping_nodes_without_interesting_groupings() {
        let (spec, fd_sets, eq) = running_example();
        let nfsm = Nfsm::build(&spec, &fd_sets, &eq, &PruneConfig::none()).unwrap();
        for node in 0..nfsm.num_nodes() as u32 {
            assert!(
                nfsm.prop(node).as_grouping().is_none(),
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
        let gid = nfsm.node(&g(&[A, B]).into()).unwrap();
        assert!(nfsm.info[gid as usize].interesting);
        // The ordering (a,b) ε-steps into its full-prefix-set grouping.
        let ab = nfsm.node(&o(&[A, B]).into()).unwrap();
        assert!(nfsm.eps(ab).contains(&gid));
        // The grouping node itself only ε-steps to node 0.
        assert_eq!(nfsm.eps(gid), [0]);
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
        let ga = nfsm.node(&g(&[A]).into()).expect("seeded grouping");
        let gab = nfsm.node(&g(&[A, B]).into()).unwrap();
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
                    nfsm.prop(node).as_head_tail().is_none(),
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
        let pair = nfsm.node(&ht(&[A], &[B]).into()).unwrap();
        assert!(nfsm.info[pair as usize].interesting);
        // ε: (a,b) implies its decomposition {a}(b).
        let ab = nfsm.node(&o(&[A, B]).into()).unwrap();
        assert!(nfsm.eps(ab).contains(&pair));
        // FD edge: {a} --{a→b}--> {a}(b).
        let ga = nfsm.node(&g(&[A]).into()).unwrap();
        assert!(nfsm.targets(ga, 0).contains(&pair));
        // The pair's own ε covers node 0 and its head grouping (plus
        // any materialized absorbed-prefix grouping) — never an
        // ordering node.
        assert!(nfsm.eps(pair).contains(&0));
        assert!(nfsm.eps(pair).contains(&ga));
        for &t in nfsm.eps(pair) {
            assert!(
                nfsm.prop(t).as_ordering().is_none() || t == 0,
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
        let pair = nfsm.node(&ht(&[A], &[B, C]).into()).unwrap();
        for implied in [
            nfsm.node(&ht(&[A], &[B]).into()).unwrap(),
            nfsm.node(&ht(&[A, B], &[C]).into()).unwrap(),
            nfsm.node(&g(&[A, B, C]).into()).unwrap(),
        ] {
            assert!(
                nfsm.eps(pair).contains(&implied),
                "missing ε to node {implied}"
            );
        }
    }

    #[test]
    fn eps_edges_point_to_all_prefixes() {
        let (spec, fd_sets, eq) = running_example();
        let nfsm = Nfsm::build(&spec, &fd_sets, &eq, &PruneConfig::default()).unwrap();
        let abc = nfsm.node(&o(&[A, B, C]).into()).unwrap();
        let ab = nfsm.node(&o(&[A, B]).into()).unwrap();
        let a = nfsm.node(&o(&[A]).into()).unwrap();
        let eps = nfsm.eps(abc).to_vec();
        let mut expect = vec![0, a, ab];
        expect.sort_unstable();
        assert_eq!(eps, expect);
    }

    #[test]
    fn interesting_prefix_closure_is_marked() {
        let (spec, fd_sets, eq) = running_example();
        let nfsm = Nfsm::build(&spec, &fd_sets, &eq, &PruneConfig::default()).unwrap();
        // (a) is interesting (prefix of (a,b)) but not produced.
        let a = nfsm.node(&o(&[A]).into()).unwrap();
        assert!(nfsm.info[a as usize].interesting);
        assert!(!nfsm.info[a as usize].produced);
        let b = nfsm.node(&o(&[B]).into()).unwrap();
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
        let a = nfsm.node(&o(&[A]).into()).unwrap();
        let abc = nfsm.node(&o(&[A, B, C]).into()).unwrap();
        assert!(nfsm.targets(a, 0).contains(&abc));
    }
}
