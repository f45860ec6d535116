//! The deterministic-counter gate: exact pinned values for the work
//! counters of a fixed set of plan-generation, preparation and
//! execution cells.
//!
//! Every number below is a pure function of the query and the code —
//! no clock, no thread count, no machine — so it is compared exactly
//! (costs by `f64::to_bits`). A change that moves one of them on
//! purpose (a better bound, a leaner schedule, a new span) edits the
//! pinned row in the same diff, where the reviewer sees which counter
//! moved and by how much; a change that moves one by accident fails
//! here first. The failure message prints the observed row in source
//! form, one line like the pinned rows: paste it over the old one.
//! There is deliberately no update mode.
//!
//! The cells: chain/cycle/star/clique, TPC-R Q8, the chain-10
//! DFSM-vs-Simmen plan counts,
//! grouping / aggregation-placement / partial-sort queries under both
//! arms of their comparison, the Q8 preparation sizes and one executed
//! plan. The pipeline benchmark's `--trace 1` ledger reports the same
//! counters summed over its suites; those it does not carry are pinned
//! only here: `spans` (records of a recording [`Trace`]),
//! `nfsm_nodes_before` (NFSM size before pruning), `phases`, a digest
//! of every per-phase entry in order (so a count charged to the wrong
//! phase fails even when the run totals hold), and `arena`, a digest
//! of every plan node in allocation order — so the layout of the plan
//! table, not only its size, is pinned.

use ofw::catalog::Catalog;
use ofw::core::{OrderingFramework, PruneConfig};
use ofw::exec::{execute_serial, OpStat};
use ofw::obs::{PhaseStats, Trace};
use ofw::plangen::{ExplicitOracle, OrderOracle, PlanGen, PlanGenResult};
use ofw::query::extract::ExtractOptions;
use ofw::query::{ExtractedQuery, Query};
use ofw::simmen::SimmenFramework;
use std::fmt::Debug;

use ofw::workload::{
    generate_columns, grouping_query, large_query, q8_query, star_agg_query,
    star_agg_query_ordered, DataConfig, GroupingQueryConfig, LargeQueryConfig, StarAggConfig,
    Topology,
};

use Arm::{Dfsm, Explicit, Simmen};
use Search::{Full, RootOnly, SortOnly};
use Topology::{Chain, Clique, Cycle, Star};
use Q::{Grouping, Large, StarAgg, StarAggOrdered, Q8};

/// The query of a cell (generator and its parameters).
#[derive(Clone, Copy, Debug)]
enum Q {
    /// `large_query`: topology, relations, seed.
    Large(Topology, usize, u64),
    /// TPC-R Query 8.
    Q8,
    /// `grouping_query`: relations, extra edges, seed.
    Grouping(usize, usize, u64),
    /// `star_agg_query`: dimensions, seed.
    StarAgg(usize, u64),
    /// `star_agg_query_ordered`: dimensions, seed.
    StarAggOrdered(usize, u64),
}

/// The order-oracle arm.
#[derive(Clone, Copy, Debug)]
enum Arm {
    Dfsm,
    Simmen,
    /// The explicit-set ground truth: like Simmen's arm it interns
    /// states as the DP asks, so its arena pins the probe order.
    Explicit,
}

/// What the cell changes on a default `PlanGen`.
#[derive(Clone, Copy, Debug)]
enum Search {
    /// Nothing: every default on.
    Full,
    /// `aggregation_placement(false)`: the root-only ceiling.
    RootOnly,
    /// `partial_sort(false)`: the sort-only ceiling.
    SortOnly,
}

/// The deterministic counters of one traced DP run.
#[derive(Debug, PartialEq)]
struct Dp {
    plans: usize,
    pairs_emitted: u64,
    pairs_considered: u64,
    unions: u64,
    kept: u64,
    dominated: u64,
    bound_pruned: u64,
    probes: u64,
    memo_hits: u64,
    enforcers_admitted: u64,
    enforcers_won: u64,
    spans: usize,
    phases: u64,
    arena: u64,
}

/// FNV-1a over 64-bit words, as `golden_automata.rs` digests automata;
/// every variable-length list is followed by its length so adjacent
/// lists cannot alias.
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

    /// A value by its `Debug` text (operators print child ids as `P{n}`).
    fn text(&mut self, v: &dyn Debug) {
        self.list(format!("{v:?}").bytes().map(u64::from));
    }
}

/// Every arena node in allocation order — operator, covered relations,
/// cost and cardinality bits, aggregation mark, applied FDs, oracle
/// state — then the winner's id.
fn arena_digest<S: Copy + Debug>(r: &PlanGenResult<S>) -> u64 {
    let mut d = Digest(0xcbf2_9ce4_8422_2325);
    for n in r.arena.nodes() {
        d.text(&n.op);
        d.list(n.mask.iter().map(|m| m as u64));
        d.word(n.cost.to_bits());
        d.word(n.card.to_bits());
        d.text(&n.agg);
        d.list(n.applied_fds.iter().map(|f| f as u64));
        d.text(&n.state);
    }
    d.word(u64::from(r.best.0));
    d.0
}

/// Every phase entry in order — name, unions, pairs, plans and every
/// decision counter; the wall-clock `time` is left out.
fn phases_digest(phases: &[PhaseStats]) -> u64 {
    let mut d = Digest(0xcbf2_9ce4_8422_2325);
    for ph in phases {
        d.text(&ph.name);
        d.word(ph.unions);
        d.word(ph.pairs_emitted);
        d.word(ph.plans);
        d.text(&ph.decisions);
    }
    d.word(phases.len() as u64);
    d.0
}

/// One pinned cell: what is planned, the winner's cost, the counters.
#[derive(Debug)]
struct Row {
    q: Q,
    arm: Arm,
    search: Search,
    cost: f64,
    dp: Dp,
}

fn plan<O: OrderOracle>(
    catalog: &Catalog,
    query: &Query,
    ex: &ExtractedQuery,
    oracle: &O,
    search: Search,
) -> (f64, Dp) {
    let trace = Trace::recording();
    let pg = PlanGen::new(catalog, query, ex, oracle).trace(&trace);
    let r = match search {
        Full => pg,
        RootOnly => pg.aggregation_placement(false),
        SortOnly => pg.partial_sort(false),
    }
    .run();
    let d = &r.stats.decisions;
    let dp = Dp {
        plans: r.stats.plans,
        pairs_emitted: r.stats.pairs_emitted,
        pairs_considered: r.stats.pairs_considered,
        unions: r.stats.unions,
        kept: d.pruning.kept_total(),
        dominated: d.pruning.dominated_total(),
        bound_pruned: d.pruning.bound_pruned,
        probes: d.probes.total(),
        memo_hits: d.probes.dominance_memo_hits,
        enforcers_admitted: d.enforcers.admitted_total(),
        enforcers_won: d.enforcers.won_total(),
        spans: trace.records().len(),
        phases: phases_digest(&r.stats.phases),
        arena: arena_digest(&r),
    };
    (r.cost, dp)
}

fn observe(q: Q, arm: Arm, search: Search) -> Row {
    let (catalog, query) = match q {
        Large(topology, num_relations, seed) => large_query(&LargeQueryConfig {
            topology,
            num_relations,
            seed,
        }),
        Q8 => q8_query(),
        Grouping(num_relations, extra_edges, seed) => grouping_query(&GroupingQueryConfig {
            num_relations,
            extra_edges,
            seed,
        }),
        StarAgg(dimensions, seed) => star_agg_query(&StarAggConfig { dimensions, seed }),
        StarAggOrdered(dimensions, seed) => {
            star_agg_query_ordered(&StarAggConfig { dimensions, seed })
        }
    };
    let ex = ofw::query::extract(&catalog, &query, &ExtractOptions::default());
    let (cost, dp) = match arm {
        Dfsm => {
            let fw = OrderingFramework::prepare(&ex.spec, PruneConfig::default()).unwrap();
            plan(&catalog, &query, &ex, &fw, search)
        }
        Simmen => plan(
            &catalog,
            &query,
            &ex,
            &SimmenFramework::prepare(&ex.spec),
            search,
        ),
        Explicit => plan(
            &catalog,
            &query,
            &ex,
            &ExplicitOracle::prepare(&ex.spec),
            search,
        ),
    };
    Row {
        q,
        arm,
        search,
        cost,
        dp,
    }
}

/// Observes every row of `tables`, then fails once if any moved,
/// printing each moved row pinned and observed, so that one run shows
/// every row a change moves.
fn check(tables: &[&[Row]]) {
    let mut moved = String::new();
    for want in tables.iter().copied().flatten() {
        let got = observe(want.q, want.arm, want.search);
        if got.dp != want.dp || got.cost.to_bits() != want.cost.to_bits() {
            moved += &format!("pinned:\n    {want:?},\nobserved:\n    {got:?},\n");
        }
    }
    assert!(
        moved.is_empty(),
        "golden rows moved (paste each observed row over its pinned row if the change is \
         intended):\n{moved}"
    );
}

/// The topology sweep (`large_query` seeds `0x4279 + n`), planned
/// exhaustively. `pairs_considered` is the field the frozen benchmark
/// still reads; it equals `pairs_emitted` in every row.
#[rustfmt::skip]
const ENUMERATOR_CELLS: &[Row] = &[
    Row { q: Large(Chain, 20, 17037), arm: Dfsm, search: Full, cost: 44986181875.60717, dp: Dp { plans: 11883, pairs_emitted: 2660, pairs_considered: 2660, unions: 190, kept: 12239, dominated: 223833, bound_pruned: 21564, probes: 1508773, memo_hits: 204379, enforcers_admitted: 70, enforcers_won: 70, spans: 214, phases: 11127654679081775525, arena: 11279144329539609960 } },
    Row { q: Large(Cycle, 12, 17029), arm: Dfsm, search: Full, cost: 1873440.709209783, dp: Dp { plans: 4391, pairs_emitted: 1452, pairs_considered: 1452, unions: 121, kept: 4579, dominated: 38707, bound_pruned: 52402, probes: 230685, memo_hits: 34845, enforcers_admitted: 40, enforcers_won: 40, spans: 137, phases: 13035481004653870030, arena: 7570569121871172981 } },
    Row { q: Large(Star, 10, 17027), arm: Dfsm, search: Full, cost: 243600693078.95612, dp: Dp { plans: 15309, pairs_emitted: 4608, pairs_considered: 4608, unions: 511, kept: 15599, dominated: 168372, bound_pruned: 9549, probes: 821439, memo_hits: 140039, enforcers_admitted: 40, enforcers_won: 40, spans: 525, phases: 4934788274996206119, arena: 16080460800575571328 } },
    Row { q: Large(Clique, 8, 17025), arm: Dfsm, search: Full, cost: 96386.27620519481, dp: Dp { plans: 1253, pairs_emitted: 6050, pairs_considered: 6050, unions: 247, kept: 2052, dominated: 18386, bound_pruned: 18803, probes: 402906, memo_hits: 18097, enforcers_admitted: 266, enforcers_won: 266, spans: 259, phases: 14932741382936476126, arena: 9936935059155964478 } },
];

/// TPC-R Q8 (the paper's §7 query) and the paper's #Plans claim on a
/// 10-relation chain
/// (seed `0x9a11e1 + 10`): same optimum, an eighth of Simmen's plans.
#[rustfmt::skip]
const ARM_CELLS: &[Row] = &[
    Row { q: Q8, arm: Dfsm, search: Full, cost: 15089531.108982708, dp: Dp { plans: 392, pairs_emitted: 232, pairs_considered: 232, unions: 36, kept: 549, dominated: 3099, bound_pruned: 3165, probes: 17373, memo_hits: 2798, enforcers_admitted: 77, enforcers_won: 77, spans: 49, phases: 11632423965066021508, arena: 12857324622766552834 } },
    Row { q: Large(Chain, 10, 10097131), arm: Dfsm, search: Full, cost: 871234.7017481327, dp: Dp { plans: 1276, pairs_emitted: 330, pairs_considered: 330, unions: 45, kept: 1415, dominated: 11603, bound_pruned: 3552, probes: 56611, memo_hits: 10139, enforcers_admitted: 29, enforcers_won: 29, spans: 59, phases: 11318695052939363713, arena: 9619680857069406672 } },
    Row { q: Large(Chain, 10, 10097131), arm: Simmen, search: Full, cost: 871234.7017481327, dp: Dp { plans: 10135, pairs_emitted: 330, pairs_considered: 330, unions: 45, kept: 10401, dominated: 93304, bound_pruned: 67984, probes: 9689430, memo_hits: 89091, enforcers_admitted: 29, enforcers_won: 29, spans: 59, phases: 8501119076099611106, arena: 171899063150773986 } },
];

/// Grouping queries (n = 4, 5 with n-1 and n edges; seeds
/// `0x6751 + 10 n + extra`), DFSM vs Simmen, and the explicit arm on
/// the smallest: its counters equal the DFSM row's, its arena differs
/// only in the oracle states.
#[rustfmt::skip]
const GROUPING_CELLS: &[Row] = &[
    Row { q: Grouping(4, 0, 26489), arm: Dfsm, search: Full, cost: 29795.360777824324, dp: Dp { plans: 50, pairs_emitted: 20, pairs_considered: 20, unions: 6, kept: 88, dominated: 352, bound_pruned: 171, probes: 1653, memo_hits: 281, enforcers_admitted: 16, enforcers_won: 16, spans: 15, phases: 2395263479361409509, arena: 4759893125619727520 } },
    Row { q: Grouping(4, 0, 26489), arm: Simmen, search: Full, cost: 29795.360777824324, dp: Dp { plans: 67, pairs_emitted: 20, pairs_considered: 20, unions: 6, kept: 112, dominated: 427, bound_pruned: 220, probes: 2790, memo_hits: 360, enforcers_admitted: 16, enforcers_won: 16, spans: 15, phases: 2322825108106832477, arena: 8328098184320166071 } },
    Row { q: Grouping(4, 0, 26489), arm: Explicit, search: Full, cost: 29795.360777824324, dp: Dp { plans: 50, pairs_emitted: 20, pairs_considered: 20, unions: 6, kept: 88, dominated: 352, bound_pruned: 171, probes: 1653, memo_hits: 281, enforcers_admitted: 16, enforcers_won: 16, spans: 15, phases: 2395263479361409509, arena: 907136415527826065 } },
    Row { q: Grouping(5, 0, 26499), arm: Dfsm, search: Full, cost: 2108191.291047524, dp: Dp { plans: 133, pairs_emitted: 40, pairs_considered: 40, unions: 10, kept: 192, dominated: 1114, bound_pruned: 200, probes: 4219, memo_hits: 983, enforcers_admitted: 18, enforcers_won: 18, spans: 20, phases: 2808962976449582983, arena: 731983792944617679 } },
    Row { q: Grouping(5, 0, 26499), arm: Simmen, search: Full, cost: 2108191.291047524, dp: Dp { plans: 254, pairs_emitted: 40, pairs_considered: 40, unions: 10, kept: 360, dominated: 1678, bound_pruned: 578, probes: 13645, memo_hits: 1493, enforcers_admitted: 18, enforcers_won: 18, spans: 20, phases: 1835328457152813500, arena: 14383556113515481333 } },
    Row { q: Grouping(4, 1, 26490), arm: Dfsm, search: Full, cost: 2617684.6193579114, dp: Dp { plans: 100, pairs_emitted: 30, pairs_considered: 30, unions: 8, kept: 156, dominated: 706, bound_pruned: 381, probes: 3856, memo_hits: 660, enforcers_admitted: 32, enforcers_won: 32, spans: 17, phases: 6277459434672169750, arena: 1417511354322524543 } },
    Row { q: Grouping(4, 1, 26490), arm: Simmen, search: Full, cost: 2617684.6193579114, dp: Dp { plans: 135, pairs_emitted: 30, pairs_considered: 30, unions: 8, kept: 205, dominated: 923, bound_pruned: 531, probes: 6757, memo_hits: 801, enforcers_admitted: 32, enforcers_won: 32, spans: 17, phases: 6498561997341516979, arena: 16980587255714710961 } },
    Row { q: Grouping(5, 1, 26500), arm: Dfsm, search: Full, cost: 3116845.1030921037, dp: Dp { plans: 85, pairs_emitted: 80, pairs_considered: 80, unions: 16, kept: 162, dominated: 828, bound_pruned: 879, probes: 4093, memo_hits: 660, enforcers_admitted: 27, enforcers_won: 27, spans: 26, phases: 18142864289964050748, arena: 13176170692290328103 } },
    Row { q: Grouping(5, 1, 26500), arm: Simmen, search: Full, cost: 3116845.1030921037, dp: Dp { plans: 137, pairs_emitted: 80, pairs_considered: 80, unions: 16, kept: 274, dominated: 1338, bound_pruned: 1397, probes: 11759, memo_hits: 1142, enforcers_admitted: 27, enforcers_won: 27, spans: 26, phases: 15251885092357349668, arena: 1547387911954723932 } },
];

/// Star aggregation queries (1–3 dimensions; seeds `0x6A01 + 100 d`):
/// aggregation placement vs the root-only ceiling, and the explicit arm
/// on two dimensions.
#[rustfmt::skip]
const PLACEMENT_CELLS: &[Row] = &[
    Row { q: StarAgg(1, 27237), arm: Dfsm, search: Full, cost: 1123611.35, dp: Dp { plans: 57, pairs_emitted: 2, pairs_considered: 2, unions: 1, kept: 59, dominated: 117, bound_pruned: 0, probes: 403, memo_hits: 97, enforcers_admitted: 4, enforcers_won: 4, spans: 7, phases: 6227775896339656766, arena: 18305110981544711616 } },
    Row { q: StarAgg(1, 27237), arm: Dfsm, search: RootOnly, cost: 1196104.8, dp: Dp { plans: 21, pairs_emitted: 2, pairs_considered: 2, unions: 1, kept: 21, dominated: 32, bound_pruned: 0, probes: 159, memo_hits: 28, enforcers_admitted: 4, enforcers_won: 4, spans: 7, phases: 13295227518376930833, arena: 11131271362769873355 } },
    Row { q: StarAgg(2, 27337), arm: Dfsm, search: Full, cost: 1246065.0550000002, dp: Dp { plans: 120, pairs_emitted: 8, pairs_considered: 8, unions: 3, kept: 267, dominated: 862, bound_pruned: 357, probes: 4312, memo_hits: 753, enforcers_admitted: 20, enforcers_won: 20, spans: 11, phases: 412895060226576342, arena: 11209975218283120763 } },
    Row { q: StarAgg(2, 27337), arm: Dfsm, search: RootOnly, cost: 3876668.92, dp: Dp { plans: 39, pairs_emitted: 8, pairs_considered: 8, unions: 3, kept: 83, dominated: 334, bound_pruned: 24, probes: 1638, memo_hits: 301, enforcers_admitted: 21, enforcers_won: 21, spans: 11, phases: 2209242543471306901, arena: 5601077628884657424 } },
    Row { q: StarAgg(2, 27337), arm: Explicit, search: Full, cost: 1246065.0550000002, dp: Dp { plans: 120, pairs_emitted: 8, pairs_considered: 8, unions: 3, kept: 267, dominated: 862, bound_pruned: 357, probes: 4312, memo_hits: 753, enforcers_admitted: 20, enforcers_won: 20, spans: 11, phases: 412895060226576342, arena: 4156492051595464360 } },
    Row { q: StarAgg(3, 27437), arm: Dfsm, search: Full, cost: 682401.2000000001, dp: Dp { plans: 266, pairs_emitted: 24, pairs_considered: 24, unions: 7, kept: 727, dominated: 3390, bound_pruned: 1280, probes: 14870, memo_hits: 3104, enforcers_admitted: 19, enforcers_won: 19, spans: 16, phases: 1694137542233309100, arena: 7661567568627301375 } },
    Row { q: StarAgg(3, 27437), arm: Dfsm, search: RootOnly, cost: 87063131.36, dp: Dp { plans: 122, pairs_emitted: 24, pairs_considered: 24, unions: 7, kept: 215, dominated: 1418, bound_pruned: 9, probes: 6449, memo_hits: 1321, enforcers_admitted: 22, enforcers_won: 22, spans: 16, phases: 10043842437796855937, arena: 9429537481383595234 } },
];

/// `GROUP BY k ORDER BY k` star queries (1–3 dimensions; seeds
/// `0x9501 + 100 d`): the partial-sort enforcer vs the sort-only ceiling.
#[rustfmt::skip]
const PARTIAL_SORT_CELLS: &[Row] = &[
    Row { q: StarAggOrdered(1, 38245), arm: Dfsm, search: Full, cost: 1577803.21, dp: Dp { plans: 68, pairs_emitted: 2, pairs_considered: 2, unions: 1, kept: 67, dominated: 159, bound_pruned: 0, probes: 766, memo_hits: 144, enforcers_admitted: 10, enforcers_won: 10, spans: 7, phases: 14635364284655860270, arena: 4685388181823164998 } },
    Row { q: StarAggOrdered(1, 38245), arm: Dfsm, search: SortOnly, cost: 1577838.3157163358, dp: Dp { plans: 65, pairs_emitted: 2, pairs_considered: 2, unions: 1, kept: 64, dominated: 156, bound_pruned: 0, probes: 730, memo_hits: 141, enforcers_admitted: 7, enforcers_won: 7, spans: 7, phases: 11435344976429926520, arena: 712792947404537916 } },
    Row { q: StarAggOrdered(2, 38345), arm: Dfsm, search: Full, cost: 431740.0, dp: Dp { plans: 56, pairs_emitted: 8, pairs_considered: 8, unions: 3, kept: 208, dominated: 779, bound_pruned: 285, probes: 3835, memo_hits: 699, enforcers_admitted: 21, enforcers_won: 21, spans: 11, phases: 8169673096582014753, arena: 17005641886038208266 } },
    Row { q: StarAggOrdered(2, 38345), arm: Dfsm, search: SortOnly, cost: 431767.053747805, dp: Dp { plans: 54, pairs_emitted: 8, pairs_considered: 8, unions: 3, kept: 204, dominated: 774, bound_pruned: 284, probes: 3740, memo_hits: 694, enforcers_admitted: 17, enforcers_won: 17, spans: 11, phases: 12714124454124555552, arena: 2117747200784958554 } },
    Row { q: StarAggOrdered(3, 38445), arm: Dfsm, search: Full, cost: 1663415.75, dp: Dp { plans: 275, pairs_emitted: 24, pairs_considered: 24, unions: 7, kept: 651, dominated: 3025, bound_pruned: 786, probes: 13315, memo_hits: 2705, enforcers_admitted: 27, enforcers_won: 27, spans: 16, phases: 16988388276188165334, arena: 241337748993650775 } },
    Row { q: StarAggOrdered(3, 38445), arm: Dfsm, search: SortOnly, cost: 1663807.9114017873, dp: Dp { plans: 275, pairs_emitted: 24, pairs_considered: 24, unions: 7, kept: 650, dominated: 3032, bound_pruned: 778, probes: 13205, memo_hits: 2711, enforcers_admitted: 26, enforcers_won: 26, spans: 16, phases: 16221871448171880732, arena: 2080639749781841997 } },
];

#[test]
fn enumerator_cells() {
    check(&[ENUMERATOR_CELLS]);
}

#[test]
fn arm_cells() {
    check(&[ARM_CELLS]);
}

#[test]
fn grouping_placement_and_partial_sort_cells() {
    check(&[GROUPING_CELLS, PLACEMENT_CELLS, PARTIAL_SORT_CELLS]);
}

/// NFSM/DFSM sizes of the Q8 preparation (§6.2), without and with the
/// §5.7 pruning techniques.
#[derive(Debug, PartialEq)]
struct Prep {
    nfsm_nodes_before: usize,
    nfsm_nodes: usize,
    dfsm_states: usize,
    precomputed_bytes: usize,
}

#[rustfmt::skip]
const Q8_UNPRUNED: Prep = Prep { nfsm_nodes_before: 527, nfsm_nodes: 527, dfsm_states: 96, precomputed_bytes: 5824 };
#[rustfmt::skip]
const Q8_PRUNED: Prep = Prep { nfsm_nodes_before: 17, nfsm_nodes: 17, dfsm_states: 24, precomputed_bytes: 1312 };

#[test]
fn q8_preparation() {
    let (catalog, query) = q8_query();
    let ex = ofw::query::extract(&catalog, &query, &ExtractOptions::default());
    for (config, want) in [
        (PruneConfig::none(), Q8_UNPRUNED),
        (PruneConfig::default(), Q8_PRUNED),
    ] {
        let fw = OrderingFramework::prepare(&ex.spec, config).unwrap();
        let s = fw.stats();
        let got = Prep {
            nfsm_nodes_before: s.nfsm_nodes_before_prune,
            nfsm_nodes: s.nfsm_nodes,
            dfsm_states: s.dfsm_states,
            precomputed_bytes: s.precomputed_bytes,
        };
        assert_eq!(got, want, "observed (left) vs pinned (right)");
    }
}

/// `(rows_out, morsels, per-operator (batches, rows))` of the DP winner
/// of a 4-relation grouping query executed on 2 000-row base tables.
/// `batches` counts kernel tasks and the morsels of the ids an operator
/// composes for the rows it keeps, plus, for the root `PartialSort`
/// alone, the gather morsels; the selection-free scans dispatch none. A
/// join never composes its own output: a join over a pending join
/// composes that input in full and counts the morsels as its own, and
/// the `StreamAgg` reads the top join's pairs and composes its
/// representatives alone.
#[rustfmt::skip]
const EXECUTED_GROUPING_4: (u64, u64, [(&str, OpStat); 5]) = (804, 12, [("HashGroup", OpStat { batches: 2, rows: 2000 }), ("HashJoin", OpStat { batches: 5, rows: 6191 }), ("PartialSort", OpStat { batches: 3, rows: 804 }), ("Scan", OpStat { batches: 0, rows: 8000 }), ("StreamAgg", OpStat { batches: 2, rows: 804 })]);

#[test]
fn executed_plan() {
    let (catalog, query) = grouping_query(&GroupingQueryConfig {
        num_relations: 4,
        extra_edges: 0,
        seed: 4,
    });
    let ex = ofw::query::extract(&catalog, &query, &ExtractOptions::default());
    let fw = OrderingFramework::prepare(&ex.spec, PruneConfig::default()).unwrap();
    let r = PlanGen::new(&catalog, &query, &ex, &fw).run();
    let data = generate_columns(
        &catalog,
        &query,
        &DataConfig {
            scale: 0.02,
            min_rows: 2_000,
            max_rows: 20_000,
            domain_cap: None,
            seed: 104,
        },
    );
    let (_, stats) = execute_serial(&r.arena, r.best, &catalog, &query, &data).unwrap();
    let (rows_out, morsels, ops) = EXECUTED_GROUPING_4;
    assert_eq!(
        (stats.rows_out, stats.morsels, Vec::from_iter(stats.ops)),
        (rows_out, morsels, ops.to_vec()),
        "observed (left) vs pinned (right)"
    );
}
