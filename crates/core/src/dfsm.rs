//! NFSM → DFSM conversion (paper §5.4 and Appendix A) and the
//! precomputed tables of §5.5.
//!
//! The classic subset construction, lifted from automata to state
//! machines (no accepting states; instead we must know which interesting
//! orders each state implies). Two deviations worth calling out:
//!
//! * **ε-closure**: a DFSM state is always ε-closed, so a state holding
//!   `(a,b,c)` also holds `(a,b)` and `(a)` — that is how `contains` on
//!   prefixes works with a single bit probe.
//! * **self-retention**: logical orderings *survive* the application of
//!   an operator (`Ω` is monotone: `Ω_i ⊇ Ω_{i-1}`), so the successor of
//!   state `S` under symbol `f` is `ε-closure(S ∪ targets(S, f))`, i.e.
//!   every NFSM node implicitly carries a self-loop on every symbol.
//!   This matches Fig. 10, where state 1 = {(b)} stays in state 1 under
//!   `{b→c}` after the artificial node `(b,c)` has been pruned.
//!
//! After construction, two dense tables make the plan-generation ADT
//! O(1): a transition table (`state × symbol → state`) and a `contains`
//! bit matrix (`state × interesting order → bool`), together with a
//! start row mapping each *produced* order to its entry state (the `*`
//! row of Fig. 10).
//!
//! The construction interns subsets in BFS `(state, symbol)` order from
//! a fixed seeding (the empty stream, then the produced properties in
//! NFSM insertion order), so state ids are a pure function of the NFSM —
//! which is what keeps plan tables byte-identical from run to run and
//! across thread counts.

use crate::nfsm::{BuildError, Nfsm, NodeId};
use crate::property::LogicalProperty;
use crate::prune::PruneConfig;
use ofw_common::{BitMatrix, BitSet, FxHashMap, Interner};

/// The in-progress subset construction behind [`Dfsm::build`].
struct SubsetConstruction<'a> {
    nfsm: &'a Nfsm,
    /// ε-closure per NFSM node (transitive; pruning may relink chains).
    eps_closure: Vec<Vec<NodeId>>,
    max_states: usize,
    states: Interner<BitSet>,
    /// Row-major `state × symbol`; a row starts out as all self-loops
    /// and the BFS overwrites the symbols that lead elsewhere.
    transitions: Vec<u32>,
}

impl<'a> SubsetConstruction<'a> {
    fn new(nfsm: &'a Nfsm, config: &PruneConfig) -> Self {
        let n = nfsm.num_nodes();
        // visited[u] == v + 1: u was reached in v's traversal.
        let mut visited = vec![0u32; n];
        let eps_closure: Vec<Vec<NodeId>> = (0..n as NodeId)
            .map(|v| {
                let mut closure = vec![v];
                visited[v as usize] = v + 1;
                let mut next = 0;
                while let Some(&u) = closure.get(next) {
                    for &p in &nfsm.eps[u as usize] {
                        if visited[p as usize] != v + 1 {
                            visited[p as usize] = v + 1;
                            closure.push(p);
                        }
                    }
                    next += 1;
                }
                closure
            })
            .collect();
        SubsetConstruction {
            nfsm,
            eps_closure,
            max_states: config.max_dfsm_states,
            states: Interner::new(),
            transitions: Vec::new(),
        }
    }

    /// The entry subset of a stream shaped like `node`: its ε-closure.
    fn entry(&self, node: NodeId) -> BitSet {
        set_with(&BitSet::new(), None, &self.eps_closure[node as usize])
    }

    /// Interns a subset, extending the transition table with a row of
    /// self-loops when it is new.
    fn intern(&mut self, set: BitSet) -> Result<u32, BuildError> {
        let before = self.states.len();
        let id = self.states.intern(set);
        if self.states.len() > before {
            if self.states.len() > self.max_states {
                return Err(BuildError::TooManyDfsmStates(self.max_states));
            }
            self.transitions
                .extend(std::iter::repeat_n(id, self.nfsm.num_symbols));
        }
        Ok(id)
    }

    /// Runs the BFS to the fixpoint: each state's successors are
    /// computed and interned in symbol order, filling its transition row.
    ///
    /// The successor of `subset` under `sym` is self-retention plus the
    /// ε-closures of all edge targets, so a symbol under which no member
    /// has an edge — nearly all of them — leads back to the state
    /// itself: only the runs of the members are looked at, and a subset
    /// is only copied when a target actually adds a node.
    fn run_to_fixpoint(&mut self) -> Result<(), BuildError> {
        let nfsm = self.nfsm;
        let mut fired: Vec<(usize, &[NodeId])> = Vec::new();
        let mut added: Vec<NodeId> = Vec::new();
        let mut successors: Vec<(usize, BitSet)> = Vec::new();
        let mut state = 0u32;
        while (state as usize) < self.states.len() {
            let subset = self.states.resolve(state);
            let mut top = None; // the widest member: members come ascending
            fired.clear();
            fired.extend(subset.iter().flat_map(|v| {
                top = Some(v);
                nfsm.runs(v as NodeId)
            }));
            fired.sort_by_key(|&(sym, _)| sym);
            for runs in fired.chunk_by(|a, b| a.0 == b.0) {
                added.clear();
                let targets = runs.iter().flat_map(|&(_, targets)| targets);
                for &c in targets.flat_map(|&t| &self.eps_closure[t as usize]) {
                    if !subset.contains(c as usize) {
                        added.push(c);
                    }
                }
                if !added.is_empty() {
                    successors.push((runs[0].0, set_with(subset, top, &added)));
                }
            }
            for (sym, succ) in successors.drain(..) {
                let target = self.intern(succ)?;
                self.transitions[state as usize * nfsm.num_symbols + sym] = target;
            }
            state += 1;
        }
        Ok(())
    }
}

/// `base ∪ extra`, in at most one allocation: the widest member
/// (`base_top` is `base`'s) goes in first, so a spilled set is sized once
/// instead of regrowing word by word as members land.
fn set_with(base: &BitSet, base_top: Option<usize>, extra: &[NodeId]) -> BitSet {
    let mut set = BitSet::new();
    if let Some(top) = extra.iter().map(|&v| v as usize).chain(base_top).max() {
        set.insert(top);
    }
    set.union_with(base);
    for &v in extra {
        set.insert(v as usize);
    }
    set
}

/// The deterministic FSM plus the §5.5 precomputed tables.
pub struct Dfsm {
    /// Subset of NFSM nodes per DFSM state (kept for introspection,
    /// examples, tests and on-demand dominance).
    pub states: Vec<BitSet>,
    /// Row-major transition table: `transitions[state * num_symbols + sym]`.
    pub transitions: Vec<u32>,
    /// Number of FD-set symbols.
    pub num_symbols: usize,
    /// Entry state for a tuple stream with no ordering (`()`).
    pub empty_state: u32,
    /// Entry states (`*` row): per *produced* interesting property
    /// (ordering or grouping), the state for a stream physically shaped
    /// that way (sorted, respectively hash-grouped).
    pub start: FxHashMap<LogicalProperty, u32>,
    /// `contains` bit matrix: rows = DFSM states, cols = interesting
    /// properties (orderings prefix-closed, groupings as-is), indexed by
    /// [`Dfsm::columns`] order.
    pub contains: BitMatrix,
    /// Column index per interesting property.
    pub columns: FxHashMap<LogicalProperty, u32>,
    /// Plan-domination matrix: bit (a, b) set iff state `a`'s NFSM node
    /// set is a superset of `b`'s. Node-set inclusion is *future-proof*:
    /// transitions are monotone w.r.t. set inclusion, so a dominating
    /// state keeps satisfying at least the same interesting orders under
    /// every subsequent FD application. (The weaker contains-row
    /// superset is NOT sound for pruning: an artificial node present in
    /// only one state can later derive an interesting order.)
    /// `None` when the DFSM is too large to precompute pairs; callers
    /// then compare the state subsets on demand.
    pub dominance: Option<BitMatrix>,
}

/// Above this state count the quadratic dominance matrix is skipped.
const DOMINANCE_STATE_LIMIT: usize = 1 << 12;

/// Pairwise subset-inclusion matrix over state subsets, when small
/// enough to precompute. A superset of `b` contains `b`'s rarest node,
/// so only the states holding that node are compared against `b`.
fn dominance_matrix(state_sets: &[BitSet]) -> Option<BitMatrix> {
    (state_sets.len() <= DOMINANCE_STATE_LIMIT).then(|| {
        // (node, state holding it), sorted: a node's holders are a range.
        let mut holders: Vec<(u32, u32)> = Vec::new();
        for (state, set) in state_sets.iter().enumerate() {
            holders.extend(set.iter().map(|v| (v as u32, state as u32)));
        }
        holders.sort_unstable();
        let holding = |v: usize| {
            let from = holders.partition_point(|h| (h.0 as usize) < v);
            &holders[from..holders.partition_point(|h| h.0 as usize <= v)]
        };
        let mut m = BitMatrix::new(state_sets.len(), state_sets.len());
        for (b, sb) in state_sets.iter().enumerate() {
            let rarest = sb.iter().min_by_key(|&v| holding(v).len());
            for &(_, a) in holding(rarest.expect("a state holds its entry node")) {
                if state_sets[a as usize].is_superset(sb) {
                    m.set(a as usize, b);
                }
            }
        }
        m
    })
}

impl Dfsm {
    /// Runs the subset construction over `nfsm`. Fails with
    /// [`BuildError::TooManyDfsmStates`] when the powerset grows past
    /// [`PruneConfig::max_dfsm_states`].
    pub fn build(nfsm: &Nfsm, config: &PruneConfig) -> Result<Dfsm, BuildError> {
        let mut sc = SubsetConstruction::new(nfsm, config);
        // Entry states first — the empty stream, then one per produced
        // property in `nfsm.props` insertion order. This fixed seeding
        // order is the root of the state-numbering contract.
        let empty_state = sc.intern(sc.entry(0))?;
        let mut start: FxHashMap<LogicalProperty, u32> = FxHashMap::default();
        for (node, prop) in nfsm.props.iter() {
            if nfsm.info[node as usize].produced {
                let id = sc.intern(sc.entry(node))?;
                start.insert(prop.clone(), id);
            }
        }
        sc.run_to_fixpoint()?;

        // Contains column per interesting NFSM node, in `nfsm.props`
        // insertion order (`u32::MAX` when not interesting).
        let mut columns: FxHashMap<LogicalProperty, u32> = FxHashMap::default();
        let mut col_of_node: Vec<u32> = vec![u32::MAX; nfsm.num_nodes()];
        for (node, prop) in nfsm.props.iter() {
            if nfsm.info[node as usize].interesting {
                let col = columns.len() as u32;
                columns.insert(prop.clone(), col);
                col_of_node[node as usize] = col;
            }
        }
        let states: Vec<BitSet> = sc.states.iter().map(|(_, set)| set.clone()).collect();
        let mut contains = BitMatrix::new(states.len(), columns.len());
        for (state, set) in states.iter().enumerate() {
            for v in set.iter() {
                let col = col_of_node[v];
                if col != u32::MAX {
                    contains.set(state, col as usize);
                }
            }
        }
        let dominance = dominance_matrix(&states);
        Ok(Dfsm {
            states,
            transitions: sc.transitions,
            num_symbols: nfsm.num_symbols,
            empty_state,
            start,
            contains,
            columns,
            dominance,
        })
    }

    /// Number of DFSM states.
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// Successor state under an FD-set symbol — one array lookup (§5.6).
    #[inline]
    pub fn step(&self, state: u32, sym: usize) -> u32 {
        self.transitions[state as usize * self.num_symbols + sym]
    }

    /// Bytes of the precomputed data a plan generator needs at runtime
    /// (transition table + contains matrix + start row). The state
    /// subsets are debugging metadata and excluded, matching the paper's
    /// "precomputed data" accounting in §6.2.
    pub fn precomputed_bytes(&self) -> usize {
        self.transitions.len() * std::mem::size_of::<u32>()
            + self.contains.heap_bytes()
            + self.start.len() * std::mem::size_of::<u32>()
            + self.dominance.as_ref().map_or(0, BitMatrix::heap_bytes)
    }

    /// Future-proof plan domination: `a`'s node set ⊇ `b`'s. Answered
    /// from the precomputed matrix when present, by an on-demand subset
    /// comparison otherwise — the same relation either way, so huge
    /// automata lose only the O(1) probe, never pruning power.
    #[inline]
    pub fn state_dominates(&self, a: u32, b: u32) -> bool {
        match &self.dominance {
            Some(m) => m.get(a as usize, b as usize),
            None => self.states[a as usize].is_superset(&self.states[b as usize]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eqclass::EqClasses;
    use crate::fd::Fd;
    use crate::ordering::Ordering;
    use crate::prune::{prune_fds, prune_nfsm};
    use crate::spec::InputSpec;
    use ofw_catalog::AttrId;

    const A: AttrId = AttrId(0);
    const B: AttrId = AttrId(1);
    const C: AttrId = AttrId(2);
    const D: AttrId = AttrId(3);

    fn o(ids: &[AttrId]) -> LogicalProperty {
        Ordering::new(ids.to_vec()).into()
    }

    /// Full §5 pipeline for the running example.
    fn running_example_dfsm(config: &PruneConfig) -> (Nfsm, Dfsm) {
        let mut spec = InputSpec::new();
        spec.add_produced(o(&[B]));
        spec.add_produced(o(&[A, B]));
        spec.add_tested(o(&[A, B, C]));
        spec.add_fd_set(vec![Fd::functional(&[B], C)]);
        spec.add_fd_set(vec![Fd::functional(&[B], D)]);
        let eq = EqClasses::new();
        let (sets, _) = if config.prune_fds {
            prune_fds(&spec, &eq, config)
        } else {
            (spec.fd_sets().to_vec(), 0)
        };
        let nfsm = Nfsm::build(&spec, &sets, &eq, config).unwrap();
        let nfsm = prune_nfsm(nfsm, config);
        let dfsm = Dfsm::build(&nfsm, config).unwrap();
        (nfsm, dfsm)
    }

    /// Fig. 8: three states (plus our explicit empty-stream state).
    #[test]
    fn running_example_matches_fig8() {
        let (nfsm, dfsm) = running_example_dfsm(&PruneConfig::default());
        assert_eq!(dfsm.num_states(), 4, "3 states of Fig. 8 + empty");

        let state_with = |prop: &LogicalProperty| dfsm.start[prop];
        let s_b = state_with(&o(&[B]));
        let s_ab = state_with(&o(&[A, B]));
        assert_ne!(s_b, s_ab);

        // Fig. 9 contains matrix.
        let col = |prop: &LogicalProperty| dfsm.columns[prop] as usize;
        let probe = |s: u32, prop: &LogicalProperty| dfsm.contains.get(s as usize, col(prop));
        // State 1 = {(b)}.
        assert!(probe(s_b, &o(&[B])));
        assert!(!probe(s_b, &o(&[A])));
        // State 2 = {(a),(a,b)}.
        assert!(probe(s_ab, &o(&[A])));
        assert!(probe(s_ab, &o(&[A, B])));
        assert!(!probe(s_ab, &o(&[A, B, C])));
        assert!(!probe(s_ab, &o(&[B])));

        // Fig. 10 transitions on {b→c} (symbol 0).
        let s3 = dfsm.step(s_ab, 0);
        assert_ne!(s3, s_ab, "(a,b) advances to {{(a),(a,b),(a,b,c)}}");
        assert!(probe(s3, &o(&[A, B, C])));
        assert_eq!(dfsm.step(s3, 0), s3, "state 3 is a fixpoint");
        assert_eq!(dfsm.step(s_b, 0), s_b, "state 1 loops (Fig. 10 row 1)");
        // Pruned {b→d} (symbol 1) is the identity everywhere.
        for s in [s_b, s_ab, s3] {
            assert_eq!(dfsm.step(s, 1), s);
        }
        let _ = nfsm;
    }

    /// Without any pruning the DFSM still behaves identically on the
    /// interesting orders (pruning is behaviour-preserving).
    #[test]
    fn unpruned_dfsm_behaves_identically() {
        let (_, pruned) = running_example_dfsm(&PruneConfig::default());
        let (_, raw) = running_example_dfsm(&PruneConfig::none());
        assert!(raw.num_states() >= pruned.num_states());

        for start_order in [o(&[B]), o(&[A, B])] {
            for syms in [vec![], vec![0], vec![1], vec![0, 1], vec![1, 0]] {
                let mut sp = pruned.start[&start_order];
                let mut sr = raw.start[&start_order];
                for &sym in &syms {
                    sp = pruned.step(sp, sym);
                    sr = raw.step(sr, sym);
                }
                for ord in [o(&[A]), o(&[B]), o(&[A, B]), o(&[A, B, C])] {
                    let cp = pruned
                        .contains
                        .get(sp as usize, pruned.columns[&ord] as usize);
                    let cr = raw.contains.get(sr as usize, raw.columns[&ord] as usize);
                    assert_eq!(cp, cr, "order {ord:?} after {syms:?} from {start_order:?}");
                }
            }
        }
    }

    #[test]
    fn empty_state_with_constant_gains_ordering() {
        // Heap scan (no ordering) + selection x = const ⇒ stream is
        // logically ordered by (x).
        let mut spec = InputSpec::new();
        spec.add_produced(o(&[A]));
        let f = spec.add_fd_set(vec![Fd::constant(A)]);
        let eq = EqClasses::new();
        let config = PruneConfig::default();
        let nfsm = Nfsm::build(&spec, spec.fd_sets(), &eq, &config).unwrap();
        let nfsm = prune_nfsm(nfsm, &config);
        let dfsm = Dfsm::build(&nfsm, &config).unwrap();
        let col = dfsm.columns[&o(&[A])] as usize;
        assert!(!dfsm.contains.get(dfsm.empty_state as usize, col));
        let s = dfsm.step(dfsm.empty_state, f.index());
        assert!(dfsm.contains.get(s as usize, col));
    }

    #[test]
    fn precomputed_bytes_counts_tables() {
        let (_, dfsm) = running_example_dfsm(&PruneConfig::default());
        let bytes = dfsm.precomputed_bytes();
        assert!(bytes >= dfsm.transitions.len() * 4);
        assert!(bytes < 16 * 1024, "tiny example must stay tiny: {bytes}");
    }
}
