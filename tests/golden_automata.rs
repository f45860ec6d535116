//! The automaton gate: exact pinned sizes *and a 64-bit digest* of the
//! prepared NFSM and DFSM for a fixed set of specs.
//!
//! Node, state and handle numbering is a contract — plan tables, the
//! benchmark's `inputs.lock` and every cached `Prepared` depend on it —
//! so a change to how preparation *computes* (indexes, memos, layouts)
//! must reproduce every automaton bit for bit. Each row pins the
//! preparation statistics and a digest over, in node order, every NFSM
//! node (property, `interesting`/`produced`, ε list, every non-empty
//! `(symbol, targets)` run) and the whole DFSM (each state's members,
//! `transitions`, `empty_state`, `start`, `columns`, `contains`,
//! `dominance`). Like `golden_counters.rs`: one line per row, compared
//! exactly, the observed row printed in source form on a mismatch, and
//! deliberately no update mode.
//!
//! The specs: the paper's running example, TPC-R Q8 (also with an FD
//! set one of whose equations the others imply), the benchmark's
//! `prep_spec` at two sizes and two attribute bases (attribute ids are
//! sparse — nothing may be sized by their value) and with one redundant
//! FD set per family, the grouping /
//! partial-sort / group-join extractions, eight `random_query` seeds
//! and the constant-bound grouping whose closure is factorial in `k`
//! (the ROADMAP item "Preparation over a quotient") — each with the
//! §5.7 techniques on and, where the unpruned build finishes quickly,
//! off.

use ofw::catalog::AttrId;
use ofw::core::prune::prune_fds;
use ofw::core::{
    Dfsm, EqClasses, Fd, FdSetId, Grouping, InputSpec, LogicalProperty, OrderOracle, Ordering,
    OrderingFramework, PrepareOptions, PreparedCache, PruneConfig, State,
};
use ofw::query::extract::ExtractOptions;
use ofw::workload::{
    grouping_query, groupjoin_showcase_query, partialsort_showcase_query, prep_spec,
    q13_style_query, q8_query, random_query, star_agg_query_ordered, GroupingQueryConfig,
    PrepSpecConfig, RandomQueryConfig, StarAggConfig,
};
use std::collections::{HashMap, HashSet};

use Cfg::{Pruned, Unpruned};
use S::{
    ConstGrouping, GroupJoinShowcase, GroupingQ, PartialSortShowcase, Prep, PrepRedundant,
    Q8SharedNation, Random, RunningExample, StarAggOrdered, Q13, Q8,
};

/// The spec of a row (generator and its parameters).
#[derive(Clone, Copy, Debug, PartialEq)]
enum S {
    /// §5: produced (b), (a,b); tested (a,b,c); {b→c}, {b→d}.
    RunningExample,
    /// TPC-R Query 8, extracted.
    Q8,
    /// TPC-R Query 8, extracted, plus the FD set of a join on
    /// `c_nationkey = n1_nationkey` and `s_nationkey = n1_nationkey`
    /// that also carries the implied `c_nationkey = s_nationkey`.
    Q8SharedNation,
    /// `prep_spec`: families, attribute base.
    Prep(usize, u32),
    /// `prep_spec` with one redundant FD set per family: families.
    PrepRedundant(usize),
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
        Q8SharedNation => {
            let mut spec = extracted(q8_query());
            let catalog = q8_query().0;
            let [c, n1, s] =
                ["c_nationkey", "n1_nationkey", "s_nationkey"].map(|a| catalog.attr(a));
            spec.add_fd_set(vec![
                Fd::equation(c, n1),
                Fd::equation(s, n1),
                Fd::equation(c, s),
            ]);
            spec
        }
        Prep(families, attr_base) => {
            prep_spec(&PrepSpecConfig::with_families(families).shifted(attr_base))
        }
        PrepRedundant(families) => {
            prep_spec(&PrepSpecConfig::with_families(families).with_redundant_set())
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
        let prop = &nfsm.prop(node);
        d.prop(prop);
        let info = nfsm.info[node as usize];
        d.word(u64::from(info.interesting) | u64::from(info.produced) << 1);
        d.ids(nfsm.eps(node));
        for sym in 0..nfsm.num_symbols {
            let targets = nfsm.targets(node, sym);
            if !targets.is_empty() {
                d.word(sym as u64);
                d.ids(targets);
            }
        }
        // Entry state and contains column, in node order.
        d.word(dfsm.start_of(node).map_or(u64::MAX, u64::from));
        d.word(dfsm.column_of(node).map_or(u64::MAX, u64::from));
    }
    d.word(nfsm.info.iter().filter(|info| info.produced).count() as u64);
    d.word(dfsm.contains.cols() as u64);
    d.word(dfsm.num_states() as u64);
    d.word(dfsm.num_symbols as u64);
    d.word(u64::from(dfsm.empty_state));
    for state in 0..dfsm.num_states() as u32 {
        d.ids(dfsm.members(state));
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
    Row { spec: Q8SharedNation, cfg: Pruned, nodes_before: 17, nodes: 17, edges: 20, states: 26, pruned_fds: 3, bytes: 1520, digest: 3621984959859822612 },
    Row { spec: Q8SharedNation, cfg: Unpruned, nodes_before: 2395, nodes: 2395, edges: 321746, states: 104, pruned_fds: 0, bytes: 6720, digest: 9157789453271990267 },
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
    Row { spec: PrepRedundant(3), cfg: Pruned, nodes_before: 151, nodes: 151, edges: 1116, states: 70, pruned_fds: 3, bytes: 5064, digest: 3059141265950301261 },
    Row { spec: PrepRedundant(3), cfg: Unpruned, nodes_before: 163, nodes: 163, edges: 1284, states: 67, pruned_fds: 0, bytes: 4848, digest: 296510376824970424 },
    Row { spec: PrepRedundant(10), cfg: Pruned, nodes_before: 501, nodes: 501, edges: 3720, states: 231, pruned_fds: 10, bytes: 46280, digest: 6925443062983543435 },
    Row { spec: PrepRedundant(10), cfg: Unpruned, nodes_before: 541, nodes: 541, edges: 4280, states: 221, pruned_fds: 0, bytes: 44280, digest: 8518767701223836333 },
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

/// `a`'s members ⊇ `b`'s, by hash-set lookups: the relation the
/// dominance matrix and its on-demand fallback must both answer.
fn naive_includes(sup: &HashSet<u32>, sub: &[u32]) -> bool {
    sub.iter().all(|v| sup.contains(v))
}

fn member_sets(dfsm: &Dfsm) -> Vec<HashSet<u32>> {
    let states = 0..dfsm.num_states() as u32;
    states
        .map(|s| dfsm.members(s).iter().copied().collect())
        .collect()
}

#[test]
fn dominance_matrix_is_member_set_inclusion() {
    let rows = PAPER_ROWS.iter().chain(PREP_ROWS).chain(GROUPING_ROWS);
    for row in rows.chain(RANDOM_ROWS) {
        let config = match row.cfg {
            Pruned => PruneConfig::default(),
            Unpruned => PruneConfig::none(),
        };
        let fw = OrderingFramework::prepare(&spec_of(row.spec), config).unwrap();
        let dfsm = fw.dfsm();
        let matrix = dfsm.dominance.as_ref().expect("golden automata are small");
        let sets = member_sets(dfsm);
        for (a, sup) in sets.iter().enumerate() {
            for b in 0..dfsm.num_states() {
                assert_eq!(
                    matrix.get(a, b),
                    naive_includes(sup, dfsm.members(b as u32)),
                    "{:?} {:?}: dominance bit ({a}, {b})",
                    row.spec,
                    row.cfg
                );
            }
        }
    }
}

#[test]
fn dominance_past_the_matrix_limit_is_member_set_inclusion() {
    // 250 families make about 4,250 states: past the 4,096 the quadratic
    // matrix is built for, so every answer comes from the members.
    let spec = prep_spec(&PrepSpecConfig::with_families(250));
    let fw = OrderingFramework::prepare(&spec, PruneConfig::default()).unwrap();
    let dfsm = fw.dfsm();
    let n = dfsm.num_states() as u32;
    assert!(n > 4096, "{n} states");
    assert!(dfsm.dominance.is_none());
    let sets = member_sets(dfsm);
    // Every 7th state against its neighbours (a family's states are
    // numbered close together) and against a stride across the rest.
    let (mut pairs, mut dominated) = (0, 0);
    for b in (0..n).step_by(7) {
        let near = b.saturating_sub(24)..(b + 24).min(n);
        for a in near.chain((0..n).step_by(97)) {
            let naive = naive_includes(&sets[a as usize], dfsm.members(b));
            assert_eq!(dfsm.state_dominates(a, b), naive, "states ({a}, {b})");
            pairs += 1;
            dominated += usize::from(naive && a != b);
        }
    }
    assert!(
        dominated > 0 && dominated < pairs,
        "the sample holds both answers: {dominated} of {pairs} dominated"
    );
}

/// The dependencies FD pruning drops, as `(set, dependency)`: the
/// digests see only the automaton the kept sets build, and which of
/// several mutually redundant dependencies goes (the first one tried) is
/// part of the contract too.
fn dropped(spec: S) -> Vec<(usize, String)> {
    let spec = spec_of(spec);
    let eq = EqClasses::from_fds(spec.fd_sets().iter().flat_map(|s| s.fds().iter()));
    let (kept, _) = prune_fds(&spec, &eq, &PruneConfig::default());
    let sets = spec.fd_sets().iter().zip(&kept).enumerate();
    let gone = sets.flat_map(|(i, (set, kept))| {
        let gone = set.fds().iter().filter(|fd| !kept.fds().contains(fd));
        gone.map(move |fd| (i, format!("{fd:?}")))
    });
    gone.collect()
}

#[test]
fn pruned_dependencies() {
    let pinned = |pairs: &[(usize, &str)]| -> Vec<(usize, String)> {
        pairs.iter().map(|&(i, fd)| (i, fd.to_string())).collect()
    };
    assert_eq!(dropped(RunningExample), pinned(&[(1, "[a1]->a3")]));
    assert_eq!(dropped(Q8), pinned(&[(7, "a25=const"), (8, "a2=const")]));
    // Any two of the three equations imply the third: the first goes.
    assert_eq!(
        dropped(Q8SharedNation),
        pinned(&[(7, "a25=const"), (8, "a2=const"), (9, "a6=a17")])
    );
    // `{a0, a1} → a2` follows from `a0 → a2`, in every family.
    assert_eq!(
        dropped(PrepRedundant(3)),
        pinned(&[
            (3, "[a0, a1]->a2"),
            (7, "[a4, a5]->a6"),
            (11, "[a8, a9]->a10")
        ])
    );
    assert!(dropped(Prep(10, 0)).is_empty());
}

/// Walks the product of two frameworks over one spec from the empty
/// stream and every produced property, under every FD set, and checks
/// that each pair of states satisfies the same interesting properties.
fn assert_same_answers(spec: &InputSpec, a: &OrderingFramework, b: &OrderingFramework, row: &str) {
    let keys: Vec<_> = a
        .properties()
        .map(|(p, h)| (h, b.resolve(&p).expect("same key space")))
        .collect();
    let mut work = vec![(a.produce_empty(), b.produce_empty())];
    for (h, hb) in &keys {
        if a.is_producible(*h) {
            assert!(b.is_producible(*hb), "{row}");
            work.push((a.produce(*h), b.produce(*hb)));
        }
    }
    let mut seen: HashSet<(State, State)> = HashSet::new();
    while let Some((sa, sb)) = work.pop() {
        if !seen.insert((sa, sb)) {
            continue;
        }
        for &(h, hb) in &keys {
            assert_eq!(
                a.satisfies(sa, h),
                b.satisfies(sb, hb),
                "{row}: {sa:?} / {sb:?}"
            );
        }
        for f in (0..spec.fd_sets().len() as u32).map(FdSetId) {
            work.push((a.infer(sa, f), b.infer(sb, f)));
        }
    }
}

/// The framework's key space, which the digests (over the automaton's
/// own tables) do not see: exactly the interesting closure resolves,
/// producible exactly where the spec says; `produce` enters at the
/// DFSM's start row; properties nobody declared (a reversed ordering,
/// the empty grouping) resolve to nothing; and a framework prepared
/// through the cache answers every probe like an uncached one.
#[test]
fn key_space_matches_the_spec() {
    let rows = PAPER_ROWS.iter().chain(PREP_ROWS).chain(GROUPING_ROWS);
    let cache = PreparedCache::new();
    for row in rows.chain(RANDOM_ROWS) {
        let name = format!("{:?} {:?}", row.spec, row.cfg);
        let config = match row.cfg {
            Pruned => PruneConfig::default(),
            Unpruned => PruneConfig::none(),
        };
        let spec = spec_of(row.spec);
        let fw = OrderingFramework::prepare(&spec, config.clone()).unwrap();
        let closure: HashMap<LogicalProperty, bool> =
            spec.interesting_closure().into_iter().collect();
        let keys: HashMap<LogicalProperty, bool> = fw
            .properties()
            .map(|(p, h)| (p, fw.is_producible(h)))
            .collect();
        assert_eq!(keys, closure, "{name}");
        assert_eq!(fw.properties().count(), closure.len(), "{name}");
        let dfsm = fw.dfsm();
        for (p, &produced) in &closure {
            let h = fw.resolve(p).unwrap();
            if produced {
                let start = dfsm.start_of(fw.nfsm().node(p).unwrap()).unwrap();
                assert_eq!(fw.produce(h), State(start), "{name}: {p:?}");
            }
            if let LogicalProperty::Ordering(o) = p {
                let reversed: LogicalProperty =
                    Ordering::new(o.attrs().iter().rev().copied().collect()).into();
                if o.len() > 1 && !closure.contains_key(&reversed) {
                    assert_eq!(fw.resolve(&reversed), None, "{name}: {reversed:?}");
                }
            }
        }
        assert_eq!(fw.resolve(&Grouping::empty().into()), None, "{name}");
        let options = PrepareOptions::default();
        let cached = OrderingFramework::prepare_cached(&spec, config, &options, &cache).unwrap();
        // A shifted `prep_spec` hits its base-0 twin's automaton.
        if matches!(row.spec, Prep(_, base) if base > 0) {
            assert!(cached.stats().interned_hit, "{name}");
        }
        assert_same_answers(&spec, &fw, &cached, &name);
    }
}

/// Two specs share a cached automaton exactly when their canonical
/// specs are equal: a dependency set matches whatever order its renamed
/// dependencies come in, and a tested property that is also produced
/// counts as produced only.
#[test]
fn cache_hits_exactly_on_equal_canonical_specs() {
    let o = |ids: &[u32]| Ordering::new(ids.iter().map(|&i| AttrId(i)).collect());
    let f = |l: u32, r: u32| Fd::functional(&[AttrId(l)], AttrId(r));
    let hit = |first: &InputSpec, second: &InputSpec| {
        let (cache, options) = (PreparedCache::new(), PrepareOptions::default());
        for spec in [first, second] {
            OrderingFramework::prepare_cached(spec, PruneConfig::default(), &options, &cache)
                .unwrap();
        }
        cache.hits() == 1
    };
    // (1, 2) and (20, 10) both rename to (0, 1); {1→3, 2→3} and
    // {10→5, 20→5} both to {0→2, 1→2}, the second listed in the
    // opposite order.
    let mut a = InputSpec::new();
    a.add_produced(o(&[1, 2]));
    a.add_fd_set(vec![f(1, 3), f(2, 3)]);
    let mut b = InputSpec::new();
    b.add_produced(o(&[20, 10]));
    b.add_fd_set(vec![f(10, 5), f(20, 5)]);
    assert!(hit(&a, &b));
    let mut c = InputSpec::new();
    c.add_produced(o(&[20, 10]));
    c.add_fd_set(vec![f(10, 5)]);
    assert!(!hit(&a, &c));
    // Tested, then produced: the canonical spec only produces it.
    let mut d = InputSpec::new();
    d.add_tested(o(&[7]));
    d.add_produced(o(&[7]));
    let mut e = InputSpec::new();
    e.add_produced(o(&[3]));
    assert!(hit(&d, &e));
    e.add_tested(o(&[4]));
    assert!(!hit(&d, &e));
}
