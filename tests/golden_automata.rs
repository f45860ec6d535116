//! The automaton gate: exact pinned sizes *and a 64-bit digest* of the
//! prepared NFSM and DFSM for a fixed set of specs.
//!
//! Node, state and handle numbering is a contract — plan tables, the
//! benchmark's `inputs.lock` and every cached `Prepared` depend on it —
//! so a change to how preparation *computes* (indexes, memos, layouts)
//! must reproduce every automaton bit for bit. Each row pins the
//! preparation statistics and a digest over, in node order, every NFSM
//! node (property, `interesting`/`produced`, ε list, every non-empty
//! `(symbol, targets)` run) and the whole DFSM (`states` subsets,
//! `transitions`, `empty_state`, `start`, `columns`, `contains`,
//! `dominance`). Like `golden_counters.rs`: one line per row, compared
//! exactly, the observed row printed in source form on a mismatch, and
//! deliberately no update mode.
//!
//! The specs: the paper's running example, TPC-R Q8, the benchmark's
//! `prep_spec` at two sizes and two attribute bases (attribute ids are
//! sparse — nothing may be sized by their value), the grouping /
//! partial-sort / group-join extractions, eight `random_query` seeds
//! and the constant-bound grouping whose closure is factorial in `k`
//! (ROADMAP item 5) — each with the §5.7 techniques on and, where the
//! unpruned build finishes quickly, off.

use ofw::catalog::AttrId;
use ofw::core::{
    Fd, Grouping, InputSpec, LogicalProperty, Ordering, OrderingFramework, PruneConfig,
};
use ofw::query::extract::ExtractOptions;
use ofw::workload::{
    grouping_query, groupjoin_showcase_query, partialsort_showcase_query, prep_spec,
    q13_style_query, q8_query, random_query, star_agg_query_ordered, GroupingQueryConfig,
    PrepSpecConfig, RandomQueryConfig, StarAggConfig,
};

use Cfg::{Pruned, Unpruned};
use S::{
    ConstGrouping, GroupJoinShowcase, GroupingQ, PartialSortShowcase, Prep, Random, RunningExample,
    StarAggOrdered, Q13, Q8,
};

/// The spec of a row (generator and its parameters).
#[derive(Clone, Copy, Debug, PartialEq)]
enum S {
    /// §5: produced (b), (a,b); tested (a,b,c); {b→c}, {b→d}.
    RunningExample,
    /// TPC-R Query 8, extracted.
    Q8,
    /// `prep_spec`: families, attribute base.
    Prep(usize, u32),
    /// `grouping_query`, extracted: relations, extra edges, seed.
    GroupingQ(usize, usize, u64),
    /// `partialsort_showcase_query`, extracted.
    PartialSortShowcase,
    /// `groupjoin_showcase_query`, extracted.
    GroupJoinShowcase,
    /// `star_agg_query_ordered`, extracted: dimensions, seed.
    StarAggOrdered(usize, u64),
    /// `q13_style_query`, extracted.
    Q13,
    /// `random_query`, extracted: relations, extra edges, seed.
    Random(usize, usize, u64),
    /// Produced `(x)`, tested `{c1..ck, x}`, `k` FD sets `∅ → ci`.
    ConstGrouping(usize),
}

/// The pruning configuration of a row.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Cfg {
    /// `PruneConfig::default()`.
    Pruned,
    /// `PruneConfig::none()`.
    Unpruned,
}

/// One pinned automaton: `PrepStats` sizes plus the structural digest.
#[derive(Debug, PartialEq)]
struct Row {
    spec: S,
    cfg: Cfg,
    nodes_before: usize,
    nodes: usize,
    edges: usize,
    states: usize,
    pruned_fds: usize,
    bytes: usize,
    digest: u64,
}

fn spec_of(s: S) -> InputSpec {
    let extracted =
        |(catalog, query)| ofw::query::extract(&catalog, &query, &ExtractOptions::default()).spec;
    match s {
        RunningExample => {
            let [a, b, c, d] = [AttrId(0), AttrId(1), AttrId(2), AttrId(3)];
            let mut spec = InputSpec::new();
            spec.add_produced(Ordering::new(vec![b]));
            spec.add_produced(Ordering::new(vec![a, b]));
            spec.add_tested(Ordering::new(vec![a, b, c]));
            spec.add_fd_set(vec![Fd::functional(&[b], c)]);
            spec.add_fd_set(vec![Fd::functional(&[b], d)]);
            spec
        }
        Q8 => extracted(q8_query()),
        Prep(families, attr_base) => {
            prep_spec(&PrepSpecConfig::with_families(families).shifted(attr_base))
        }
        GroupingQ(num_relations, extra_edges, seed) => {
            extracted(grouping_query(&GroupingQueryConfig {
                num_relations,
                extra_edges,
                seed,
            }))
        }
        PartialSortShowcase => extracted(partialsort_showcase_query()),
        GroupJoinShowcase => extracted(groupjoin_showcase_query()),
        StarAggOrdered(dimensions, seed) => {
            extracted(star_agg_query_ordered(&StarAggConfig { dimensions, seed }))
        }
        Q13 => extracted(q13_style_query()),
        Random(num_relations, extra_edges, seed) => extracted(random_query(&RandomQueryConfig {
            num_relations,
            extra_edges,
            seed,
        })),
        ConstGrouping(k) => {
            let x = AttrId(k as u32);
            let mut spec = InputSpec::new();
            spec.add_produced(Ordering::new(vec![x]));
            let mut set: Vec<AttrId> = (0..k as u32).map(AttrId).collect();
            set.push(x);
            spec.add_tested(Grouping::new(set));
            for c in 0..k as u32 {
                spec.add_fd_set(vec![Fd::constant(AttrId(c))]);
            }
            spec
        }
    }
}

/// FNV-1a over 64-bit words; every variable-length list is followed by
/// its length so adjacent lists cannot alias.
struct Digest(u64);

impl Digest {
    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn list(&mut self, items: impl Iterator<Item = u64>) {
        let mut len = 0u64;
        for w in items {
            self.word(w);
            len += 1;
        }
        self.word(len);
    }

    fn attrs(&mut self, attrs: &[AttrId]) {
        self.list(attrs.iter().map(|a| u64::from(a.0)));
    }

    fn ids(&mut self, ids: &[u32]) {
        self.list(ids.iter().map(|&i| u64::from(i)));
    }

    fn prop(&mut self, p: &LogicalProperty) {
        match p {
            LogicalProperty::Ordering(o) => {
                self.word(1);
                self.attrs(o.attrs());
            }
            LogicalProperty::Grouping(g) => {
                self.word(2);
                self.attrs(g.attrs());
            }
            LogicalProperty::HeadTail(h) => {
                self.word(3);
                self.attrs(h.head_attrs());
                self.attrs(h.tail_attrs());
            }
        }
    }
}

fn digest(fw: &OrderingFramework) -> u64 {
    let mut d = Digest(0xcbf2_9ce4_8422_2325);
    let nfsm = fw.nfsm();
    let dfsm = fw.dfsm();
    d.word(nfsm.num_nodes() as u64);
    d.word(nfsm.num_symbols as u64);
    for node in 0..nfsm.num_nodes() as u32 {
        let prop = nfsm.props.resolve(node);
        d.prop(prop);
        let info = nfsm.info[node as usize];
        d.word(u64::from(info.interesting) | u64::from(info.produced) << 1);
        d.ids(&nfsm.eps[node as usize]);
        for sym in 0..nfsm.num_symbols {
            let targets = nfsm.targets(node, sym);
            if !targets.is_empty() {
                d.word(sym as u64);
                d.ids(targets);
            }
        }
        // Entry state and contains column, in node order (the maps
        // themselves iterate in hash order).
        d.word(dfsm.start.get(prop).map_or(u64::MAX, |&s| u64::from(s)));
        d.word(dfsm.columns.get(prop).map_or(u64::MAX, |&c| u64::from(c)));
    }
    d.word(dfsm.start.len() as u64);
    d.word(dfsm.columns.len() as u64);
    d.word(dfsm.num_states() as u64);
    d.word(dfsm.num_symbols as u64);
    d.word(u64::from(dfsm.empty_state));
    for set in &dfsm.states {
        d.list(set.iter().map(|v| v as u64));
    }
    d.ids(&dfsm.transitions);
    d.word(dfsm.contains.rows() as u64);
    d.word(dfsm.contains.cols() as u64);
    for state in 0..dfsm.contains.rows() {
        d.list(dfsm.contains.row_iter(state).map(|c| c as u64));
    }
    match &dfsm.dominance {
        None => d.word(0),
        Some(m) => {
            d.word(1);
            for a in 0..m.rows() {
                d.list(m.row_iter(a).map(|b| b as u64));
            }
        }
    }
    d.0
}

fn observe(spec: S, cfg: Cfg) -> Row {
    let config = match cfg {
        Pruned => PruneConfig::default(),
        Unpruned => PruneConfig::none(),
    };
    let fw = OrderingFramework::prepare(&spec_of(spec), config).unwrap();
    let s = fw.stats();
    Row {
        spec,
        cfg,
        nodes_before: s.nfsm_nodes_before_prune,
        nodes: s.nfsm_nodes,
        edges: s.nfsm_edges,
        states: s.dfsm_states,
        pruned_fds: s.pruned_fds,
        bytes: s.precomputed_bytes,
        digest: digest(&fw),
    }
}

fn check(rows: &[Row]) {
    for want in rows {
        let got = observe(want.spec, want.cfg);
        assert!(
            got == *want,
            "a golden automaton moved. Pinned:\n    {want:?},\nobserved:\n    {got:?},\n\
             Preparation must reproduce every automaton bit for bit; only a change that \
             means to alter a derivation rule, an admission decision or a traversal order \
             may paste the observed row over the pinned one."
        );
    }
}

/// The paper's running example (Figs. 4–10) and TPC-R Q8 (§6.2).
#[rustfmt::skip]
const PAPER_ROWS: &[Row] = &[
    Row { spec: RunningExample, cfg: Pruned, nodes_before: 5, nodes: 5, edges: 1, states: 4, pruned_fds: 1, bytes: 104, digest: 8700842051361949020 },
    Row { spec: RunningExample, cfg: Unpruned, nodes_before: 12, nodes: 12, edges: 32, states: 9, pruned_fds: 0, bytes: 224, digest: 9860121149522268581 },
    Row { spec: Q8, cfg: Pruned, nodes_before: 17, nodes: 17, edges: 14, states: 24, pruned_fds: 2, bytes: 1312, digest: 2448207722325703483 },
    Row { spec: Q8, cfg: Unpruned, nodes_before: 527, nodes: 527, edges: 9464, states: 96, pruned_fds: 0, bytes: 5824, digest: 17647910430271138395 },
];

/// The benchmark's `prep_heavy` generator at 3 and 10 families, at
/// attribute base 0 and at the largest shift the benchmark draws.
#[rustfmt::skip]
const PREP_ROWS: &[Row] = &[
    Row { spec: Prep(3, 0), cfg: Pruned, nodes_before: 148, nodes: 148, edges: 687, states: 52, pruned_fds: 0, bytes: 2728, digest: 415434069465628282 },
    Row { spec: Prep(3, 0), cfg: Unpruned, nodes_before: 163, nodes: 163, edges: 777, states: 52, pruned_fds: 0, bytes: 2728, digest: 8530227113488451440 },
    Row { spec: Prep(3, 65472), cfg: Pruned, nodes_before: 148, nodes: 148, edges: 687, states: 52, pruned_fds: 0, bytes: 2728, digest: 16484653739592500666 },
    Row { spec: Prep(3, 65472), cfg: Unpruned, nodes_before: 163, nodes: 163, edges: 777, states: 52, pruned_fds: 0, bytes: 2728, digest: 9621709373016373296 },
    Row { spec: Prep(10, 0), cfg: Pruned, nodes_before: 491, nodes: 491, edges: 2290, states: 171, pruned_fds: 0, bytes: 26072, digest: 6382383206555751049 },
    Row { spec: Prep(10, 0), cfg: Unpruned, nodes_before: 541, nodes: 541, edges: 2590, states: 171, pruned_fds: 0, bytes: 26072, digest: 11440846974510024771 },
    Row { spec: Prep(10, 65472), cfg: Pruned, nodes_before: 491, nodes: 491, edges: 2290, states: 171, pruned_fds: 0, bytes: 26072, digest: 2225807155049521033 },
    Row { spec: Prep(10, 65472), cfg: Unpruned, nodes_before: 541, nodes: 541, edges: 2590, states: 171, pruned_fds: 0, bytes: 26072, digest: 10860349392300302915 },
];

/// Extracted grouping, partial-sort, group-join, ordered star
/// aggregation and Q13-style queries (groupings and head/tail pairs),
/// and the constant-bound grouping at k = 4.
#[rustfmt::skip]
const GROUPING_ROWS: &[Row] = &[
    Row { spec: GroupingQ(4, 0, 26489), cfg: Pruned, nodes_before: 26, nodes: 24, edges: 98, states: 18, pruned_fds: 0, bytes: 536, digest: 17673698955407411082 },
    Row { spec: GroupingQ(4, 0, 26489), cfg: Unpruned, nodes_before: 59, nodes: 59, edges: 528, states: 18, pruned_fds: 0, bytes: 536, digest: 4587155769086830273 },
    Row { spec: GroupingQ(5, 1, 26500), cfg: Pruned, nodes_before: 30, nodes: 28, edges: 102, states: 24, pruned_fds: 0, bytes: 912, digest: 3720363852816749558 },
    Row { spec: GroupingQ(5, 1, 26500), cfg: Unpruned, nodes_before: 73, nodes: 73, edges: 560, states: 24, pruned_fds: 0, bytes: 912, digest: 15631640152123895521 },
    Row { spec: GroupingQ(6, 1, 7), cfg: Pruned, nodes_before: 16, nodes: 16, edges: 18, states: 21, pruned_fds: 0, bytes: 892, digest: 14000818939182947583 },
    Row { spec: GroupingQ(6, 1, 7), cfg: Unpruned, nodes_before: 43, nodes: 43, edges: 96, states: 21, pruned_fds: 0, bytes: 892, digest: 5119662698206590002 },
    Row { spec: GroupingQ(7, 2, 11), cfg: Pruned, nodes_before: 38, nodes: 34, edges: 118, states: 29, pruned_fds: 0, bytes: 1464, digest: 9291108653822587641 },
    Row { spec: GroupingQ(7, 2, 11), cfg: Unpruned, nodes_before: 91, nodes: 91, edges: 346, states: 29, pruned_fds: 0, bytes: 1464, digest: 6943122568984667852 },
    Row { spec: PartialSortShowcase, cfg: Pruned, nodes_before: 6, nodes: 6, edges: 8, states: 7, pruned_fds: 0, bytes: 156, digest: 1451347209116474142 },
    Row { spec: PartialSortShowcase, cfg: Unpruned, nodes_before: 8, nodes: 8, edges: 16, states: 7, pruned_fds: 0, bytes: 156, digest: 11665883396024067129 },
    Row { spec: GroupJoinShowcase, cfg: Pruned, nodes_before: 6, nodes: 6, edges: 8, states: 7, pruned_fds: 0, bytes: 156, digest: 17369388655665895468 },
    Row { spec: GroupJoinShowcase, cfg: Unpruned, nodes_before: 8, nodes: 8, edges: 16, states: 7, pruned_fds: 0, bytes: 156, digest: 12394290681863552635 },
    Row { spec: ConstGrouping(4), cfg: Pruned, nodes_before: 146, nodes: 146, edges: 4304, states: 32, pruned_fds: 0, bytes: 1028, digest: 16741808006250085483 },
    Row { spec: ConstGrouping(4), cfg: Unpruned, nodes_before: 357, nodes: 357, edges: 13820, states: 32, pruned_fds: 0, bytes: 1028, digest: 14995335405776948099 },
    Row { spec: StarAggOrdered(3, 38445), cfg: Pruned, nodes_before: 113, nodes: 112, edges: 706, states: 37, pruned_fds: 0, bytes: 1232, digest: 11629277498517871583 },
    Row { spec: StarAggOrdered(3, 38445), cfg: Unpruned, nodes_before: 1364, nodes: 1364, edges: 36998, states: 42, pruned_fds: 0, bytes: 1392, digest: 4909236545452745795 },
    Row { spec: Q13, cfg: Pruned, nodes_before: 8, nodes: 8, edges: 4, states: 10, pruned_fds: 0, bytes: 268, digest: 6191323341332729292 },
    Row { spec: Q13, cfg: Unpruned, nodes_before: 19, nodes: 19, edges: 32, states: 10, pruned_fds: 0, bytes: 268, digest: 11936502642773680197 },
];

/// Eight `random_query` extractions (n = 5..10, 0..2 extra edges).
#[rustfmt::skip]
const RANDOM_ROWS: &[Row] = &[
    Row { spec: Random(5, 0, 1), cfg: Pruned, nodes_before: 9, nodes: 9, edges: 8, states: 13, pruned_fds: 0, bytes: 448, digest: 5113023598622714057 },
    Row { spec: Random(5, 0, 1), cfg: Unpruned, nodes_before: 17, nodes: 17, edges: 40, states: 13, pruned_fds: 0, bytes: 448, digest: 6808756779876569475 },
    Row { spec: Random(6, 1, 2), cfg: Pruned, nodes_before: 13, nodes: 13, edges: 12, states: 19, pruned_fds: 0, bytes: 808, digest: 6528032048819121882 },
    Row { spec: Random(6, 1, 2), cfg: Unpruned, nodes_before: 25, nodes: 25, edges: 60, states: 19, pruned_fds: 0, bytes: 808, digest: 6265842574452470504 },
    Row { spec: Random(7, 2, 3), cfg: Pruned, nodes_before: 17, nodes: 17, edges: 16, states: 25, pruned_fds: 0, bytes: 1264, digest: 3129352259545469023 },
    Row { spec: Random(7, 2, 3), cfg: Unpruned, nodes_before: 33, nodes: 33, edges: 80, states: 25, pruned_fds: 0, bytes: 1264, digest: 6698164643824839781 },
    Row { spec: Random(8, 0, 4), cfg: Pruned, nodes_before: 15, nodes: 15, edges: 14, states: 22, pruned_fds: 0, bytes: 1024, digest: 16225399050942938867 },
    Row { spec: Random(8, 0, 4), cfg: Unpruned, nodes_before: 29, nodes: 29, edges: 70, states: 22, pruned_fds: 0, bytes: 1024, digest: 8530423354053396449 },
    Row { spec: Random(8, 2, 5), cfg: Pruned, nodes_before: 19, nodes: 19, edges: 18, states: 28, pruned_fds: 0, bytes: 1528, digest: 17002806215354874286 },
    Row { spec: Random(8, 2, 5), cfg: Unpruned, nodes_before: 37, nodes: 37, edges: 90, states: 28, pruned_fds: 0, bytes: 1528, digest: 8399414522256616670 },
    Row { spec: Random(9, 1, 6), cfg: Pruned, nodes_before: 19, nodes: 19, edges: 18, states: 28, pruned_fds: 0, bytes: 1528, digest: 10789207723185878203 },
    Row { spec: Random(9, 1, 6), cfg: Unpruned, nodes_before: 37, nodes: 37, edges: 90, states: 28, pruned_fds: 0, bytes: 1528, digest: 14262154800135816413 },
    Row { spec: Random(10, 0, 7), cfg: Pruned, nodes_before: 19, nodes: 19, edges: 18, states: 28, pruned_fds: 0, bytes: 1528, digest: 16121333966051715767 },
    Row { spec: Random(10, 0, 7), cfg: Unpruned, nodes_before: 37, nodes: 37, edges: 90, states: 28, pruned_fds: 0, bytes: 1528, digest: 5854557508818690893 },
    Row { spec: Random(10, 2, 8), cfg: Pruned, nodes_before: 23, nodes: 23, edges: 22, states: 34, pruned_fds: 0, bytes: 2128, digest: 4405012842038390370 },
    Row { spec: Random(10, 2, 8), cfg: Unpruned, nodes_before: 45, nodes: 45, edges: 110, states: 34, pruned_fds: 0, bytes: 2128, digest: 17276863868584379550 },
];

#[test]
fn paper_automata() {
    check(PAPER_ROWS);
}

#[test]
fn prep_spec_automata() {
    check(PREP_ROWS);
}

#[test]
fn grouping_automata() {
    check(GROUPING_ROWS);
}

#[test]
fn random_query_automata() {
    check(RANDOM_ROWS);
}
