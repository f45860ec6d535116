//! Allocation guard for the executor's hash kernels.
//!
//! `ofw-bench` installs the counting global allocator, so this test
//! binary can difference [`allocation_count`] around a plan execution.
//! HashJoin, HashAgg and HashGroup over 100 000 rows must allocate
//! O(morsels × columns) — a few hundred times — never O(rows): a
//! per-row key `Vec` (what the operators built before the flat
//! `hash` kernels) is ≥ 100 000 allocations and fails this loudly.
//!
//! One `#[test]` only: the counter is process-global, and a second test
//! running on another harness thread would be counted too.

extern crate ofw_bench; // links the `#[global_allocator]`

use ofw_catalog::Catalog;
use ofw_common::alloc::allocation_count;
use ofw_common::BitSet;
use ofw_exec::{execute_serial, ColRef};
use ofw_plangen::plan::AggMark;
use ofw_plangen::{PlanArena, PlanId, PlanNode, PlanOp};
use ofw_query::{AggCall, AggFunc, JoinEdge, Query};

const ROWS: usize = 100_000;
const KEYS: i64 = 50_000;
const GROUPS: i64 = 1_000;

/// `r0(k, g, v) ⋈ r1(k, w)` on `k`, `group by r0.g`, `sum(v)`,
/// `count(*)`; every join key occurs twice on either side.
fn fixture() -> (Catalog, Query, Vec<Vec<Vec<i64>>>) {
    let mut catalog = Catalog::new();
    let r0 = catalog.add_relation("r0", ROWS as f64, &["k", "g", "v"]);
    let r1 = catalog.add_relation("r1", ROWS as f64, &["k", "w"]);
    let mut query = Query::new();
    query.add_relation(&catalog, r0);
    query.add_relation(&catalog, r1);
    query.joins.push(JoinEdge {
        left: catalog.attr("r0.k"),
        right: catalog.attr("r1.k"),
        selectivity: 1.0 / KEYS as f64,
    });
    query.group_by = vec![catalog.attr("r0.g")];
    query.aggregates = vec![
        AggCall {
            func: AggFunc::Sum,
            input: Some(catalog.attr("r0.v")),
        },
        AggCall {
            func: AggFunc::Count,
            input: None,
        },
    ];
    let rows = 0..ROWS as i64;
    let data = vec![
        vec![
            rows.clone().map(|r| r % KEYS).collect(),
            rows.clone().map(|r| (r * 31) % GROUPS).collect(),
            rows.clone().collect(),
        ],
        vec![
            rows.clone().map(|r| (r * 7) % KEYS).collect(),
            rows.map(|r| -r).collect(),
        ],
    ];
    (catalog, query, data)
}

fn push(arena: &mut PlanArena<()>, op: PlanOp, mask: BitSet) -> PlanId {
    arena.push(PlanNode {
        op,
        mask,
        cost: 0.0,
        card: 0.0,
        state: (),
        agg: AggMark::NONE,
        applied_fds: Default::default(),
    })
}

#[test]
fn hash_operators_allocate_per_morsel_not_per_row() {
    let (catalog, query, data) = fixture();
    let mut arena: PlanArena<()> = PlanArena::new();
    let s0 = push(&mut arena, PlanOp::Scan { qrel: 0 }, query.relation_set(0));
    let s1 = push(&mut arena, PlanOp::Scan { qrel: 1 }, query.relation_set(1));
    let key = query.group_by.clone();
    let plans = [
        (
            "HashJoin",
            2 * ROWS,
            push(
                &mut arena,
                PlanOp::HashJoin {
                    left: s0,
                    right: s1,
                    edge: 0,
                },
                query.all_relations_set(),
            ),
        ),
        (
            "HashAgg",
            GROUPS as usize,
            push(
                &mut arena,
                PlanOp::HashAgg {
                    input: s0,
                    key: key.clone(),
                    partial: false,
                },
                query.relation_set(0),
            ),
        ),
        (
            "HashGroup",
            ROWS,
            push(
                &mut arena,
                PlanOp::HashGroup { input: s0, key },
                query.relation_set(0),
            ),
        ),
    ];
    for (op, rows_out, root) in plans {
        let before = allocation_count();
        let (out, stats) = execute_serial(&arena, root, &catalog, &query, &data).unwrap();
        let allocs = allocation_count() - before;
        assert_eq!(out.num_rows(), rows_out, "{op} output rows");
        assert!(stats.morsels as usize >= ROWS / ofw_exec::MORSEL_ROWS);
        assert!(allocs > 0, "the counting allocator is not installed");
        assert!(
            allocs < (ROWS / 10) as u64,
            "{op} over {ROWS} rows made {allocs} allocations — a per-row allocation is back"
        );
        // The work really happened: every group holds ROWS / GROUPS rows.
        if let Some(counts) = out.col(ColRef::Acc(1)) {
            assert!(counts.iter().all(|&c| c == (ROWS as i64) / GROUPS));
        }
    }
}
