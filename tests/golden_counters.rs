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
//! counters summed over its suites; two it does not carry are pinned
//! only here: `spans` (records of a recording [`Trace`]) and
//! `nfsm_nodes_before` (NFSM size before pruning).

use ofw::catalog::Catalog;
use ofw::core::{OrderingFramework, PruneConfig};
use ofw::exec::{execute_serial, OpStat};
use ofw::obs::Trace;
use ofw::plangen::{OrderOracle, PlanGen};
use ofw::query::extract::ExtractOptions;
use ofw::query::{ExtractedQuery, Query};
use ofw::simmen::SimmenFramework;
use ofw::workload::{
    generate_columns, grouping_query, large_query, q8_query, star_agg_query,
    star_agg_query_ordered, DataConfig, GroupingQueryConfig, LargeQueryConfig, StarAggConfig,
    Topology,
};

use Arm::{Dfsm, Simmen};
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

fn plan<O>(
    catalog: &Catalog,
    query: &Query,
    ex: &ExtractedQuery,
    oracle: &O,
    search: Search,
) -> (f64, Dp)
where
    O: OrderOracle + Sync,
    O::Key: Sync,
    O::State: Send + Sync,
{
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
    };
    Row {
        q,
        arm,
        search,
        cost,
        dp,
    }
}

fn check(rows: &[Row]) {
    for want in rows {
        let got = observe(want.q, want.arm, want.search);
        assert!(
            got.dp == want.dp && got.cost.to_bits() == want.cost.to_bits(),
            "a golden row moved. Pinned:\n    {want:?},\nobserved (paste over the pinned row if \
             the change is intended):\n    {got:?},\n"
        );
    }
}

/// The topology sweep (`large_query` seeds `0x4279 + n`), planned
/// exhaustively. `pairs_considered` is the field the frozen benchmark
/// still reads; it equals `pairs_emitted` in every row.
#[rustfmt::skip]
const ENUMERATOR_CELLS: &[Row] = &[
    Row { q: Large(Chain, 20, 17037), arm: Dfsm, search: Full, cost: 44986181875.60717, dp: Dp { plans: 11883, pairs_emitted: 2660, pairs_considered: 2660, unions: 190, kept: 12239, dominated: 223833, bound_pruned: 21564, probes: 330349, memo_hits: 1323969, enforcers_admitted: 70, enforcers_won: 70, spans: 214 } },
    Row { q: Large(Cycle, 12, 17029), arm: Dfsm, search: Full, cost: 1873440.709209783, dp: Dp { plans: 4391, pairs_emitted: 1452, pairs_considered: 1452, unions: 121, kept: 4579, dominated: 38707, bound_pruned: 52402, probes: 96935, memo_hits: 167974, enforcers_admitted: 40, enforcers_won: 40, spans: 137 } },
    Row { q: Large(Star, 10, 17027), arm: Dfsm, search: Full, cost: 243600693078.95612, dp: Dp { plans: 15309, pairs_emitted: 4608, pairs_considered: 4608, unions: 511, kept: 15599, dominated: 168372, bound_pruned: 9549, probes: 304511, memo_hits: 612473, enforcers_admitted: 40, enforcers_won: 40, spans: 525 } },
    Row { q: Large(Clique, 8, 17025), arm: Dfsm, search: Full, cost: 96386.27620519481, dp: Dp { plans: 1253, pairs_emitted: 6050, pairs_considered: 6050, unions: 247, kept: 2052, dominated: 18386, bound_pruned: 18803, probes: 161233, memo_hits: 254892, enforcers_admitted: 266, enforcers_won: 266, spans: 259 } },
];

/// TPC-R Q8 (the paper's §7 query) and the paper's #Plans claim on a
/// 10-relation chain
/// (seed `0x9a11e1 + 10`): same optimum, an eighth of Simmen's plans.
#[rustfmt::skip]
const ARM_CELLS: &[Row] = &[
    Row { q: Q8, arm: Dfsm, search: Full, cost: 15089531.108982708, dp: Dp { plans: 392, pairs_emitted: 232, pairs_considered: 232, unions: 36, kept: 549, dominated: 3099, bound_pruned: 3165, probes: 9278, memo_hits: 10658, enforcers_admitted: 77, enforcers_won: 77, spans: 49 } },
    Row { q: Large(Chain, 10, 10097131), arm: Dfsm, search: Full, cost: 871234.7017481327, dp: Dp { plans: 1276, pairs_emitted: 330, pairs_considered: 330, unions: 45, kept: 1415, dominated: 11603, bound_pruned: 3552, probes: 23294, memo_hits: 43422, enforcers_admitted: 29, enforcers_won: 29, spans: 59 } },
    Row { q: Large(Chain, 10, 10097131), arm: Simmen, search: Full, cost: 871234.7017481327, dp: Dp { plans: 10135, pairs_emitted: 330, pairs_considered: 330, unions: 45, kept: 10401, dominated: 93304, bound_pruned: 67984, probes: 2495864, memo_hits: 7259243, enforcers_admitted: 29, enforcers_won: 29, spans: 59 } },
];

/// Grouping queries (n = 4, 5 with n-1 and n edges; seeds
/// `0x6751 + 10 n + extra`), DFSM vs Simmen.
#[rustfmt::skip]
const GROUPING_CELLS: &[Row] = &[
    Row { q: Grouping(4, 0, 26489), arm: Dfsm, search: Full, cost: 29795.360777824324, dp: Dp { plans: 50, pairs_emitted: 20, pairs_considered: 20, unions: 6, kept: 88, dominated: 352, bound_pruned: 171, probes: 1111, memo_hits: 833, enforcers_admitted: 16, enforcers_won: 16, spans: 15 } },
    Row { q: Grouping(4, 0, 26489), arm: Simmen, search: Full, cost: 29795.360777824324, dp: Dp { plans: 67, pairs_emitted: 20, pairs_considered: 20, unions: 6, kept: 112, dominated: 427, bound_pruned: 220, probes: 1662, memo_hits: 1481, enforcers_admitted: 16, enforcers_won: 16, spans: 15 } },
    Row { q: Grouping(5, 0, 26499), arm: Dfsm, search: Full, cost: 2108191.291047524, dp: Dp { plans: 133, pairs_emitted: 40, pairs_considered: 40, unions: 10, kept: 192, dominated: 1114, bound_pruned: 200, probes: 2367, memo_hits: 2736, enforcers_admitted: 18, enforcers_won: 18, spans: 20 } },
    Row { q: Grouping(5, 0, 26499), arm: Simmen, search: Full, cost: 2108191.291047524, dp: Dp { plans: 254, pairs_emitted: 40, pairs_considered: 40, unions: 10, kept: 360, dominated: 1678, bound_pruned: 578, probes: 6439, memo_hits: 8647, enforcers_admitted: 18, enforcers_won: 18, spans: 20 } },
    Row { q: Grouping(4, 1, 26490), arm: Dfsm, search: Full, cost: 2617684.6193579114, dp: Dp { plans: 100, pairs_emitted: 30, pairs_considered: 30, unions: 8, kept: 156, dominated: 706, bound_pruned: 381, probes: 2522, memo_hits: 1913, enforcers_admitted: 32, enforcers_won: 32, spans: 17 } },
    Row { q: Grouping(4, 1, 26490), arm: Simmen, search: Full, cost: 2617684.6193579114, dp: Dp { plans: 135, pairs_emitted: 30, pairs_considered: 30, unions: 8, kept: 205, dominated: 923, bound_pruned: 531, probes: 4021, memo_hits: 3497, enforcers_admitted: 32, enforcers_won: 32, spans: 17 } },
    Row { q: Grouping(5, 1, 26500), arm: Dfsm, search: Full, cost: 3116845.1030921037, dp: Dp { plans: 85, pairs_emitted: 80, pairs_considered: 80, unions: 16, kept: 162, dominated: 828, bound_pruned: 879, probes: 2537, memo_hits: 2160, enforcers_admitted: 27, enforcers_won: 27, spans: 26 } },
    Row { q: Grouping(5, 1, 26500), arm: Simmen, search: Full, cost: 3116845.1030921037, dp: Dp { plans: 137, pairs_emitted: 80, pairs_considered: 80, unions: 16, kept: 274, dominated: 1338, bound_pruned: 1397, probes: 5417, memo_hits: 7421, enforcers_admitted: 27, enforcers_won: 27, spans: 26 } },
];

/// Star aggregation queries (1–3 dimensions; seeds `0x6A01 + 100 d`):
/// aggregation placement vs the root-only ceiling.
#[rustfmt::skip]
const PLACEMENT_CELLS: &[Row] = &[
    Row { q: StarAgg(1, 27237), arm: Dfsm, search: Full, cost: 1123611.35, dp: Dp { plans: 57, pairs_emitted: 2, pairs_considered: 2, unions: 1, kept: 59, dominated: 117, bound_pruned: 0, probes: 313, memo_hits: 184, enforcers_admitted: 4, enforcers_won: 4, spans: 7 } },
    Row { q: StarAgg(1, 27237), arm: Dfsm, search: RootOnly, cost: 1196104.8, dp: Dp { plans: 21, pairs_emitted: 2, pairs_considered: 2, unions: 1, kept: 21, dominated: 32, bound_pruned: 0, probes: 128, memo_hits: 59, enforcers_admitted: 4, enforcers_won: 4, spans: 7 } },
    Row { q: StarAgg(2, 27337), arm: Dfsm, search: Full, cost: 1246065.0550000002, dp: Dp { plans: 120, pairs_emitted: 8, pairs_considered: 8, unions: 3, kept: 267, dominated: 862, bound_pruned: 357, probes: 2663, memo_hits: 2368, enforcers_admitted: 20, enforcers_won: 20, spans: 11 } },
    Row { q: StarAgg(2, 27337), arm: Dfsm, search: RootOnly, cost: 3876668.92, dp: Dp { plans: 39, pairs_emitted: 8, pairs_considered: 8, unions: 3, kept: 83, dominated: 334, bound_pruned: 24, probes: 1057, memo_hits: 885, enforcers_admitted: 21, enforcers_won: 21, spans: 11 } },
    Row { q: StarAgg(3, 27437), arm: Dfsm, search: Full, cost: 682401.2000000001, dp: Dp { plans: 266, pairs_emitted: 24, pairs_considered: 24, unions: 7, kept: 727, dominated: 3390, bound_pruned: 1280, probes: 6469, memo_hits: 10600, enforcers_admitted: 19, enforcers_won: 19, spans: 16 } },
    Row { q: StarAgg(3, 27437), arm: Dfsm, search: RootOnly, cost: 87063131.36, dp: Dp { plans: 122, pairs_emitted: 24, pairs_considered: 24, unions: 7, kept: 215, dominated: 1418, bound_pruned: 9, probes: 3040, memo_hits: 4513, enforcers_admitted: 22, enforcers_won: 22, spans: 16 } },
];

/// `GROUP BY k ORDER BY k` star queries (1–3 dimensions; seeds
/// `0x9501 + 100 d`): the partial-sort enforcer vs the sort-only ceiling.
#[rustfmt::skip]
const PARTIAL_SORT_CELLS: &[Row] = &[
    Row { q: StarAggOrdered(1, 38245), arm: Dfsm, search: Full, cost: 1577803.21, dp: Dp { plans: 68, pairs_emitted: 2, pairs_considered: 2, unions: 1, kept: 67, dominated: 159, bound_pruned: 0, probes: 548, memo_hits: 364, enforcers_admitted: 10, enforcers_won: 10, spans: 7 } },
    Row { q: StarAggOrdered(1, 38245), arm: Dfsm, search: SortOnly, cost: 1577838.3157163358, dp: Dp { plans: 65, pairs_emitted: 2, pairs_considered: 2, unions: 1, kept: 64, dominated: 156, bound_pruned: 0, probes: 519, memo_hits: 353, enforcers_admitted: 7, enforcers_won: 7, spans: 7 } },
    Row { q: StarAggOrdered(2, 38345), arm: Dfsm, search: Full, cost: 431740.0, dp: Dp { plans: 56, pairs_emitted: 8, pairs_considered: 8, unions: 3, kept: 208, dominated: 779, bound_pruned: 285, probes: 2287, memo_hits: 2039, enforcers_admitted: 21, enforcers_won: 21, spans: 11 } },
    Row { q: StarAggOrdered(2, 38345), arm: Dfsm, search: SortOnly, cost: 431767.053747805, dp: Dp { plans: 54, pairs_emitted: 8, pairs_considered: 8, unions: 3, kept: 204, dominated: 774, bound_pruned: 284, probes: 2201, memo_hits: 2023, enforcers_admitted: 17, enforcers_won: 17, spans: 11 } },
    Row { q: StarAggOrdered(3, 38445), arm: Dfsm, search: Full, cost: 1663415.75, dp: Dp { plans: 275, pairs_emitted: 24, pairs_considered: 24, unions: 7, kept: 651, dominated: 3025, bound_pruned: 786, probes: 6890, memo_hits: 8887, enforcers_admitted: 27, enforcers_won: 27, spans: 16 } },
    Row { q: StarAggOrdered(3, 38445), arm: Dfsm, search: SortOnly, cost: 1663807.9114017873, dp: Dp { plans: 275, pairs_emitted: 24, pairs_considered: 24, unions: 7, kept: 650, dominated: 3032, bound_pruned: 778, probes: 6786, memo_hits: 8885, enforcers_admitted: 26, enforcers_won: 26, spans: 16 } },
];

#[test]
fn enumerator_cells() {
    check(ENUMERATOR_CELLS);
}

#[test]
fn arm_cells() {
    check(ARM_CELLS);
}

#[test]
fn grouping_placement_and_partial_sort_cells() {
    check(GROUPING_CELLS);
    check(PLACEMENT_CELLS);
    check(PARTIAL_SORT_CELLS);
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
#[rustfmt::skip]
const EXECUTED_GROUPING_4: (u64, u64, [(&str, OpStat); 5]) = (804, 818, [("HashGroup", OpStat { batches: 2, rows: 2000 }), ("HashJoin", OpStat { batches: 6, rows: 6191 }), ("PartialSort", OpStat { batches: 805, rows: 804 }), ("Scan", OpStat { batches: 4, rows: 8000 }), ("StreamAgg", OpStat { batches: 1, rows: 804 })]);

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
