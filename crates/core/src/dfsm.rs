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
//! bit matrix (`state × interesting property → bool`), together with a
//! start row giving each *produced* NFSM node its entry state (the `*`
//! row of Fig. 10). Start row and column numbers are tables by node.
//!
//! The construction allocates per table, not per node or state: the
//! ε-closures of all NFSM nodes share one arena, the states' members
//! another (a [`SliceInterner`]), and membership is one mark array.
//!
//! The construction interns subsets in BFS `(state, symbol)` order from
//! a fixed seeding (the empty stream, then the produced properties in
//! NFSM insertion order), so state ids are a pure function of the NFSM —
//! which is what keeps plan tables byte-identical from run to run and
//! across thread counts.

use crate::nfsm::{BuildError, Nfsm, NodeId};
use crate::prune::PruneConfig;
use ofw_common::{BitMatrix, SliceInterner};

/// The ε-closure of every NFSM node, ascending (transitive; pruning
/// may relink chains), all in one arena: each closure is collected
/// breadth-first at the end of the shared buffer, then sorted in place.
struct Closures {
    /// `flat[offsets[v]..offsets[v + 1]]` is node `v`'s closure.
    offsets: Vec<usize>,
    flat: Vec<NodeId>,
}

impl Closures {
    fn new(nfsm: &Nfsm) -> Self {
        let n = nfsm.num_nodes();
        // visited[u] == v + 1: u was reached in v's traversal.
        let mut visited = vec![0u32; n];
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        let mut flat = Vec::new();
        for v in 0..n as NodeId {
            let start = flat.len();
            flat.push(v);
            visited[v as usize] = v + 1;
            let mut next = start;
            while let Some(&u) = flat.get(next) {
                for &p in nfsm.eps(u) {
                    if visited[p as usize] != v + 1 {
                        visited[p as usize] = v + 1;
                        flat.push(p);
                    }
                }
                next += 1;
            }
            flat[start..].sort_unstable();
            offsets.push(flat.len());
        }
        Closures { offsets, flat }
    }

    /// The closure of `node`, ascending.
    fn of(&self, node: NodeId) -> &[NodeId] {
        let v = node as usize;
        &self.flat[self.offsets[v]..self.offsets[v + 1]]
    }
}

/// The in-progress subset construction behind [`Dfsm::build`].
struct SubsetConstruction<'a> {
    nfsm: &'a Nfsm,
    max_states: usize,
    /// Each state's members, ascending, in one arena.
    states: SliceInterner<NodeId>,
    /// Row-major `state × symbol`; a row starts out as all self-loops
    /// and the BFS overwrites the symbols that lead elsewhere.
    transitions: Vec<u32>,
}

impl SubsetConstruction<'_> {
    /// Interns a state by its ascending members, extending the
    /// transition table with a row of self-loops when it is new.
    fn intern(&mut self, members: &[NodeId]) -> Result<u32, BuildError> {
        let (id, new) = self.states.intern(0, members);
        if new {
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
    /// The successor of a state under `sym` is self-retention plus the
    /// ε-closures of all edge targets, so a symbol under which no member
    /// has an edge — nearly all of them — leads back to the state
    /// itself: only the runs of the members are looked at, and a
    /// successor is built, by merging the sorted added nodes into the
    /// members, only when a target adds a node. Membership is a mark
    /// array stamped with the state's id.
    fn run_to_fixpoint(&mut self, closures: &Closures) -> Result<(), BuildError> {
        let nfsm = self.nfsm;
        let mut member = vec![u32::MAX; nfsm.num_nodes()];
        let mut seen = vec![false; nfsm.num_nodes()];
        let mut fired: Vec<(usize, &[NodeId])> = Vec::new();
        let (mut members, mut added, mut successor) = (Vec::new(), Vec::new(), Vec::new());
        let mut state = 0u32;
        while (state as usize) < self.states.len() {
            members.clear();
            members.extend_from_slice(self.states.resolve(state).1);
            fired.clear();
            for &v in &members {
                member[v as usize] = state;
                fired.extend(nfsm.runs(v));
            }
            fired.sort_by_key(|&(sym, _)| sym);
            for runs in fired.chunk_by(|a, b| a.0 == b.0) {
                added.clear();
                let targets = runs.iter().flat_map(|&(_, targets)| targets);
                for &c in targets.flat_map(|&t| closures.of(t)) {
                    if member[c as usize] != state && !seen[c as usize] {
                        seen[c as usize] = true;
                        added.push(c);
                    }
                }
                if !added.is_empty() {
                    added.iter().for_each(|&c| seen[c as usize] = false);
                    added.sort_unstable();
                    merge(&mut successor, &members, &added);
                    let target = self.intern(&successor)?;
                    self.transitions[state as usize * nfsm.num_symbols + runs[0].0] = target;
                }
            }
            state += 1;
        }
        Ok(())
    }
}

/// Sets `out` to `base ∪ extra`, ascending; both inputs are ascending
/// and disjoint.
fn merge(out: &mut Vec<NodeId>, base: &[NodeId], extra: &[NodeId]) {
    out.clear();
    let mut base = base.iter().peekable();
    for &v in extra {
        while let Some(&u) = base.next_if(|&&u| u < v) {
            out.push(u);
        }
        out.push(v);
    }
    out.extend(base);
}

/// Whether ascending `sup` holds every member of ascending `sub`.
fn includes(sup: &[NodeId], sub: &[NodeId]) -> bool {
    let mut sup = sup.iter();
    sub.len() <= sup.len() && sub.iter().all(|&v| sup.find(|&&u| u >= v) == Some(&v))
}

/// The deterministic FSM plus the §5.5 precomputed tables.
pub struct Dfsm {
    /// NFSM nodes per DFSM state, ascending (kept for introspection,
    /// examples, tests and on-demand dominance); see [`Dfsm::members`].
    states: SliceInterner<NodeId>,
    /// Row-major transition table: `transitions[state * num_symbols + sym]`.
    pub transitions: Vec<u32>,
    /// Number of FD-set symbols.
    pub num_symbols: usize,
    /// Entry state for a tuple stream with no ordering (`()`).
    pub empty_state: u32,
    /// Entry states (`*` row), per NFSM node: for a *produced* node, the
    /// state of a stream physically shaped that way (sorted, hash-grouped,
    /// …); see [`Dfsm::start_of`].
    start: Vec<Option<u32>>,
    /// `contains` bit matrix: rows = DFSM states, cols = the interesting
    /// NFSM nodes (orderings prefix-closed, groupings and pairs as-is),
    /// numbered in node order; see [`Dfsm::column_of`].
    pub contains: BitMatrix,
    /// Per NFSM node, its `contains` column if it is interesting.
    columns: Vec<Option<u32>>,
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

/// Pairwise subset-inclusion matrix over the states' members, when
/// small enough to precompute. A superset of `b` holds `b`'s rarest
/// node, so only that node's holders are compared against `b`; the
/// holders of every node come from one counting pass.
fn dominance_matrix(states: &SliceInterner<NodeId>, num_nodes: usize) -> Option<BitMatrix> {
    let n = states.len();
    (n <= DOMINANCE_STATE_LIMIT).then(|| {
        let members = |s: usize| states.resolve(s as u32).1;
        // offsets[v]..offsets[v + 1]: the states holding node v, ascending.
        let mut offsets = vec![0usize; num_nodes + 1];
        (0..n)
            .flat_map(members)
            .for_each(|&v| offsets[v as usize + 1] += 1);
        for v in 0..num_nodes {
            offsets[v + 1] += offsets[v];
        }
        let mut fill = offsets.clone();
        let mut holders = vec![0u32; offsets[num_nodes]];
        for s in 0..n {
            for &v in members(s) {
                holders[fill[v as usize]] = s as u32;
                fill[v as usize] += 1;
            }
        }
        let holding = |v: NodeId| &holders[offsets[v as usize]..offsets[v as usize + 1]];
        let mut m = BitMatrix::new(n, n);
        for b in 0..n {
            let rarest = members(b).iter().min_by_key(|&&v| holding(v).len());
            for &a in holding(*rarest.expect("a state holds its entry node")) {
                if includes(members(a as usize), members(b)) {
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
        let closures = Closures::new(nfsm);
        let mut sc = SubsetConstruction {
            nfsm,
            max_states: config.max_dfsm_states,
            states: SliceInterner::default(),
            transitions: Vec::new(),
        };
        // Entry states first — the empty stream, then one per produced
        // property in NFSM node order, each its node's ε-closure. This
        // fixed seeding order is the root of the state-numbering contract.
        let empty_state = sc.intern(closures.of(0))?;
        let mut start = vec![None; nfsm.num_nodes()];
        for node in 0..nfsm.num_nodes() as NodeId {
            if nfsm.info[node as usize].produced {
                start[node as usize] = Some(sc.intern(closures.of(node))?);
            }
        }
        sc.run_to_fixpoint(&closures)?;

        // Contains column per interesting NFSM node, in node order.
        let mut columns = vec![None; nfsm.num_nodes()];
        let interesting = (0..nfsm.num_nodes()).filter(|&v| nfsm.info[v].interesting);
        for (col, node) in interesting.enumerate() {
            columns[node] = Some(col as u32);
        }
        let states = sc.states;
        let mut contains = BitMatrix::new(states.len(), columns.iter().flatten().count());
        for state in 0..states.len() {
            let (_, members) = states.resolve(state as u32);
            for col in members.iter().filter_map(|&v| columns[v as usize]) {
                contains.set(state, col as usize);
            }
        }
        let dominance = dominance_matrix(&states, nfsm.num_nodes());
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

    /// The NFSM nodes of `state`, ascending.
    pub fn members(&self, state: u32) -> &[NodeId] {
        self.states.resolve(state).1
    }

    /// The entry state of a stream physically shaped as `node`'s
    /// property, if the node is produced.
    #[inline]
    pub fn start_of(&self, node: NodeId) -> Option<u32> {
        self.start[node as usize]
    }

    /// The `contains` column of `node`, if the node is interesting.
    #[inline]
    pub fn column_of(&self, node: NodeId) -> Option<u32> {
        self.columns[node as usize]
    }

    /// Successor state under an FD-set symbol — one array lookup (§5.6).
    #[inline]
    pub fn step(&self, state: u32, sym: usize) -> u32 {
        self.transitions[state as usize * self.num_symbols + sym]
    }

    /// Bytes of the precomputed data a plan generator needs at runtime
    /// (transition table + contains matrix + one entry state per
    /// produced property). The state subsets are debugging metadata and
    /// excluded, matching the paper's "precomputed data" accounting in
    /// §6.2.
    pub fn precomputed_bytes(&self) -> usize {
        self.transitions.len() * std::mem::size_of::<u32>()
            + self.contains.heap_bytes()
            + self.start.iter().flatten().count() * std::mem::size_of::<u32>()
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
            None => includes(self.members(a), self.members(b)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eqclass::EqClasses;
    use crate::fd::Fd;
    use crate::ordering::Ordering;
    use crate::property::LogicalProperty;
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

    /// The entry state of a produced property.
    fn start(nfsm: &Nfsm, dfsm: &Dfsm, prop: &LogicalProperty) -> u32 {
        dfsm.start_of(nfsm.node(prop).unwrap()).unwrap()
    }

    /// The contains column of an interesting property.
    fn col(nfsm: &Nfsm, dfsm: &Dfsm, prop: &LogicalProperty) -> usize {
        dfsm.column_of(nfsm.node(prop).unwrap()).unwrap() as usize
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

        let s_b = start(&nfsm, &dfsm, &o(&[B]));
        let s_ab = start(&nfsm, &dfsm, &o(&[A, B]));
        assert_ne!(s_b, s_ab);

        // Fig. 9 contains matrix.
        let probe =
            |s: u32, p: &LogicalProperty| dfsm.contains.get(s as usize, col(&nfsm, &dfsm, p));
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
    }

    /// Without any pruning the DFSM still behaves identically on the
    /// interesting orders (pruning is behaviour-preserving).
    #[test]
    fn unpruned_dfsm_behaves_identically() {
        let (pruned_nfsm, pruned) = running_example_dfsm(&PruneConfig::default());
        let (raw_nfsm, raw) = running_example_dfsm(&PruneConfig::none());
        assert!(raw.num_states() >= pruned.num_states());

        for start_order in [o(&[B]), o(&[A, B])] {
            for syms in [vec![], vec![0], vec![1], vec![0, 1], vec![1, 0]] {
                let mut sp = start(&pruned_nfsm, &pruned, &start_order);
                let mut sr = start(&raw_nfsm, &raw, &start_order);
                for &sym in &syms {
                    sp = pruned.step(sp, sym);
                    sr = raw.step(sr, sym);
                }
                for ord in [o(&[A]), o(&[B]), o(&[A, B]), o(&[A, B, C])] {
                    let cp = pruned
                        .contains
                        .get(sp as usize, col(&pruned_nfsm, &pruned, &ord));
                    let cr = raw.contains.get(sr as usize, col(&raw_nfsm, &raw, &ord));
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
        let col = col(&nfsm, &dfsm, &o(&[A]));
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
