//! Allocation guard for the executor's hash kernels and output fill.
//!
//! `ofw-bench` installs the counting global allocator, so this test
//! binary can difference [`allocation_count`] and [`allocated_bytes`]
//! around a plan execution, over 100 000 rows:
//!
//! * HashJoin, HashAgg and HashGroup must allocate O(morsels × columns)
//!   times — a few hundred — never O(rows): a per-row key `Vec` (what
//!   the operators built before the flat `hash` kernels) is ≥ 100 000
//!   allocations and fails this loudly.
//! * HashJoin and HashGroup must allocate about their output column
//!   bytes once, plus their key and pair buffers: each output column is
//!   allocated at its final length and filled in place. Assembling the
//!   output from per-morsel chunks allocates every output value twice
//!   and fails the byte bound.
//!
//! One `#[test]` only: the counters are process-global, and a second
//! test running on another harness thread would be counted too.

extern crate ofw_bench; // links the `#[global_allocator]`

use ofw_catalog::Catalog;
use ofw_common::alloc::{allocated_bytes, allocation_count};
use ofw_common::BitSet;
use ofw_exec::{execute_serial, ColRef, ColTable};
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

fn column_bytes(t: &ColTable) -> u64 {
    t.cols.iter().map(|c| (c.len() * 8) as u64).sum()
}

#[test]
fn hash_operators_allocate_per_morsel_not_per_row() {
    let (catalog, query, data) = fixture();
    let mut arena: PlanArena<()> = PlanArena::new();
    let s0 = push(&mut arena, PlanOp::Scan { qrel: 0 }, query.relation_set(0));
    let s1 = push(&mut arena, PlanOp::Scan { qrel: 1 }, query.relation_set(1));
    let key = query.group_by.clone();
    // Per plan: its name, its output rows, its root, the scans below
    // it, and the bytes its key and pair buffers may take — 16 per
    // build and probe row (hash, chain link) and per output pair (the
    // pair lists, grown by doubling) for the join; 36 per row (hash,
    // three `u32` row or group ids, the per-morsel group tables) for the
    // hash grouping. HashAgg's output is a thousand groups: it is held
    // to the allocation count only. Measured on 100 000 rows: HashJoin
    // 13.7 MB against a 16.8 MB bound for 8.0 MB of output, HashGroup
    // 5.8 MB against 6.7 MB for 2.4 MB; chunked output then copied
    // allocates 23.3 MB and 8.2 MB.
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
            vec![s0, s1],
            Some(2 * ROWS as u64 * 16 + 2 * ROWS as u64 * 16),
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
            vec![s0],
            None,
        ),
        (
            "HashGroup",
            ROWS,
            push(
                &mut arena,
                PlanOp::HashGroup { input: s0, key },
                query.relation_set(0),
            ),
            vec![s0],
            Some(ROWS as u64 * 36),
        ),
    ];
    let measure = |root: PlanId| {
        let (allocs, bytes) = (allocation_count(), allocated_bytes());
        let (out, stats) = execute_serial(&arena, root, &catalog, &query, &data).unwrap();
        (
            allocation_count() - allocs,
            allocated_bytes() - bytes,
            out,
            stats,
        )
    };
    for (op, rows_out, root, scans, buffers) in plans {
        let (allocs, bytes, out, stats) = measure(root);
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
        let Some(buffers) = buffers else { continue };
        let op_bytes = bytes - scans.iter().map(|&s| measure(s).1).sum::<u64>();
        let out_bytes = column_bytes(&out);
        let bound = out_bytes * 13 / 10 + buffers;
        assert!(
            op_bytes <= bound,
            "{op} allocated {op_bytes} bytes for {out_bytes} bytes of output columns \
             (bound {bound}) — an output value is allocated twice"
        );
    }
}
