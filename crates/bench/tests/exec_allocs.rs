//! Allocation guard for the executor's hash and sort kernels and its
//! output fill.
//!
//! `ofw-bench` installs the counting global allocator, so this test
//! binary can difference [`allocation_count`] and [`allocated_bytes`]
//! around a plan execution, over 100 000 rows:
//!
//! * HashJoin, HashAgg, HashGroup, StreamAgg and GroupJoin must allocate
//!   O(morsels × columns) times — a few hundred — never O(rows): a
//!   per-row key `Vec` (what the operators built before the flat `hash`
//!   kernels) is ≥ 100 000 allocations and fails this loudly, and so
//!   does a per-run one under the streaming aggregates.
//! * Sort and a filtered IndexScan must allocate O(morsels) times — the
//!   radix kernel's counting passes use no heap — so an allocation per
//!   bucket (hundreds) or per equal-key run (tens of thousands) fails.
//! * Each plan must allocate about its root's output column bytes once,
//!   plus its id, pair, hash, sort-entry or aggregation buffers (dense
//!   key slices, run starts and their keys, contribution slices, group
//!   tables and accumulators): only the root gathers columns, one after
//!   another, each allocated at its final length as its fill begins and
//!   filled in place, and a column that an applied join predicate makes
//!   equal to an earlier one is one copy of it; every operator below the
//!   root hands up `u32` row ids, a join its pair list, which an
//!   aggregate reads where it lies; and a sort holds at most two 16-byte
//!   entries per input row. An inner join that materializes its columns
//!   (a two-join chain, a sort over a join), output assembled from
//!   per-morsel chunks, or a copied column allocated twice, allocates
//!   output values twice and fails the byte bound; so does an aggregate
//!   over a join that composes the join's ids before it folds them away.
//!
//! One `#[test]` only: the counters are process-global, and a second
//! test running on another harness thread would be counted too.

#![forbid(unsafe_code)]

extern crate ofw_bench; // links the `#[global_allocator]`

use ofw_catalog::Catalog;
use ofw_common::alloc::{allocated_bytes, allocation_count};
use ofw_common::BitSet;
use ofw_exec::{execute_serial, ColRef, ColTable};
use ofw_plangen::plan::AggMark;
use ofw_plangen::{PlanArena, PlanId, PlanNode, PlanOp};
use ofw_query::{AggCall, AggFunc, FilterPred, JoinEdge, Query};

const ROWS: usize = 100_000;
const KEYS: i64 = 50_000;
const GROUPS: i64 = 1_000;
const MORSEL_ROWS: u64 = ofw_exec::MORSEL_ROWS as u64;

/// `r0(k, g, v) ⋈ r1(k, w)` on `k`, `group by r0.g`, `sum(v)`,
/// `count(*)`; every join key occurs twice on either side. `r2(k, f)`,
/// joined to nothing, has an index on `k` (20 bits of key range) and the
/// selection `f <= 1`, which keeps half its rows. `r3(w, u)` joins `r1`
/// on `w`, one partner per `r1` row.
fn fixture() -> (Catalog, Query, Vec<Vec<Vec<i64>>>) {
    let mut catalog = Catalog::new();
    let r0 = catalog.add_relation("r0", ROWS as f64, &["k", "g", "v"]);
    let r1 = catalog.add_relation("r1", ROWS as f64, &["k", "w"]);
    let r2 = catalog.add_relation("r2", ROWS as f64, &["k", "f"]);
    let r3 = catalog.add_relation("r3", ROWS as f64, &["w", "u"]);
    catalog.add_index(r2, vec![catalog.attr("r2.k")], false);
    let mut query = Query::new();
    query.add_relation(&catalog, r0);
    query.add_relation(&catalog, r1);
    query.add_relation(&catalog, r2);
    query.add_relation(&catalog, r3);
    query.filters.push(FilterPred {
        attr: catalog.attr("r2.f"),
        selectivity: 0.5,
    });
    query.joins.push(JoinEdge {
        left: catalog.attr("r0.k"),
        right: catalog.attr("r1.k"),
        selectivity: 1.0 / KEYS as f64,
    });
    query.joins.push(JoinEdge {
        left: catalog.attr("r1.w"),
        right: catalog.attr("r3.w"),
        selectivity: 1.0 / ROWS as f64,
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
            rows.clone().map(|r| -r).collect(),
        ],
        vec![
            rows.clone().map(|r| (r * 7919) % 1_000_003).collect(),
            rows.clone().map(|r| r % 4).collect(),
        ],
        vec![
            rows.clone().map(|r| -((r * 7) % ROWS as i64)).collect(),
            rows.collect(),
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
    let s3 = push(&mut arena, PlanOp::Scan { qrel: 3 }, query.relation_set(3));
    let key = query.group_by.clone();
    let mut joined = query.relation_set(0);
    joined.union_with(&query.relation_set(1));
    let mut chained = joined.clone();
    chained.union_with(&query.relation_set(3));
    let join = push(
        &mut arena,
        PlanOp::HashJoin {
            left: s0,
            right: s1,
            edge: 0,
        },
        joined.clone(),
    );
    let (rows, pairs) = (ROWS as u64, 2 * ROWS as u64);
    let by_group = push(
        &mut arena,
        PlanOp::Sort {
            input: s0,
            key: query.group_by.clone(),
        },
        query.relation_set(0),
    );
    // The join the group-join makes: grouped on `r0.g`, its probe side.
    let grouped_join = push(
        &mut arena,
        PlanOp::HashJoin {
            left: by_group,
            right: s1,
            edge: 0,
        },
        joined.clone(),
    );
    let morsels = rows.div_ceil(MORSEL_ROWS);
    // A one-key hash join's kernel buffers: per build row its hash, row
    // id and key copy (20 bytes); per bucket (the build rows rounded up
    // to a power of two) an offset (4); per probe row its hash, which
    // becomes its span (8), and its dense key when the probe side has
    // row ids (8 more); per candidate a slot and a pair (12). At load
    // ≤ 1 a probe row meets its matches and, on average, under one other
    // build row, so candidates are bounded by the pairs plus the probe
    // rows.
    let hash_join = |build: u64, probe: u64, probe_ids: bool, pairs: u64| {
        let probe_row = if probe_ids { 16 } else { 8 };
        build * 20 + build.next_power_of_two() * 4 + probe * probe_row + (pairs + probe) * 12
    };
    // A hash aggregate's kernel buffers over `rows` input rows whose
    // keys are borrowed (a scan's), meeting `local` groups a morsel and
    // `groups` in all, with `folds` fold columns: per row its hash,
    // local group id and bucket head (16 bytes); per local group its
    // chain link, hash and representative row (16), twice over since
    // they grow by doubling, its fold values (8 each), and its merged id
    // and merge bucket head (12, the bucket count rounded up); per group
    // the merged table's entries and fold values, twice over, and its
    // output order and representative (16). Group counts round up to a
    // power of two, as a doubling vector's capacity does. Per morsel its
    // task's bookkeeping: its range (16), its result slot (72: a table
    // and an accumulator list), its key lists (dense slice, slice and
    // column: 24 + 16 + 32 for the one key) and its accumulator list (24
    // per fold).
    let hash_agg = |rows: u64, local: u64, groups: u64, folds: u64| {
        rows.div_ceil(MORSEL_ROWS)
            * (local.next_power_of_two() * (2 * 16 + 8 * folds + 12) + 16 + 72 + 72 + 24 * folds)
            + rows * 16
            + groups.next_power_of_two() * (2 * (16 + 8 * folds) + 16)
    };
    // A stream aggregate's kernel buffers over `rows` input rows read
    // through row ids, with `keys` key columns, `dense` contribution
    // columns read through the ids (a raw `sum`, `min` or `max` input)
    // and `groups` groups whose representatives carry `parts` id
    // columns: per row its dense key values (8 each),
    // its run-start bit (1 / 8) and its dense contributions (8 each);
    // per morsel a look-back key row, a closing run bound and the start
    // bits' last word (8 per key + 16); per group its start row and key
    // values twice — per morsel, then end to end for the grouping check
    // — its hash and check-table entry (32, the bucket rounded up), its
    // run bound (8) and a representative id per part (4 each). Per
    // morsel the bookkeeping of its run-finding task: its range (16),
    // result slot (48: the starts and the key list) and key lists
    // (dense slices and start keys, 24 + 24 per key); and of its fold
    // tasks, one per value column, filled a column at a time: the
    // morsel's output range and run end (16 + 8).
    let stream_agg = |rows: u64, keys: u64, dense: u64, groups: u64, parts: u64| {
        rows * (8 * keys + 8 * dense)
            + rows / 8
            + rows.div_ceil(MORSEL_ROWS) * (8 * keys + 16 + 16 + 48 + 48 * keys + 24)
            + groups * (2 * (4 + 8 * keys) + 32 + 8 + 4 * parts)
    };
    let pair_morsels = pairs.div_ceil(MORSEL_ROWS);
    // A streaming aggregate over the join of the sorted `r0` with `r1`
    // (the group-join, or a `StreamAgg` over a `HashJoin`): the sort's
    // entries and ids, the join's kernel buffers, and the aggregate's over
    // the pairs, which it reads where they lie, composing ids for its
    // representatives alone, each looked up in the pairs once (8 bytes).
    // Composing the join's two id columns first (1.6 MB) fails.
    let agg_over_join = 2 * rows * 16
        + rows * 4
        + hash_join(rows, rows, true, pairs)
        + stream_agg(pairs, 1, 1, GROUPS as u64, 2)
        + GROUPS as u64 * 8;
    // Per plan: its name, its output rows, its root, the allocations it
    // may make — rows / 10 for the hash operators; a few per morsel for
    // the sort, whose 16-bit key cuts 256 radix buckets; sixteen per
    // morsel for the index scan, whose filter grows each morsel's
    // survivor list by doubling and whose 20-bit key cuts 1 024 buckets,
    // and for the streaming aggregates, per morsel of every pass they
    // make — and the bytes its id, pair, hash or entry buffers may take
    // beside the output columns the root gathers: a join's kernel
    // buffers (`hash_join`), and a `u32` id per part and row of every
    // join or sort output it composes; 36 per row (hash, three `u32` row
    // or group ids, the per-morsel group tables) for the hash grouping,
    // 48 over a join (its key read dense through the pairs, and a second
    // part's ids); two 16-byte sort entries per input row for the sorts
    // (the filtered index scan's survivor lists and ids fit in what the
    // rows it drops leave over); an aggregate's kernel buffers
    // (`hash_agg`, `stream_agg`). A scan below an operator allocates
    // nothing, so each plan is charged its whole allocation. A join hands
    // on its pairs and every
    // consumer reads through them: the root gathers a join's columns
    // with no id column composed, a sort or hash grouping composes the
    // ids of the rows it keeps, in its output order, and a parent join
    // composes its pending input once. Measured on 100 000 rows (bound
    // in brackets): HashJoin 14.4 MB [15.3] for 8.0 MB of output (`r1.k`
    // copied from `r0.k`) in 187 allocations; HashAgg 3.08 MB [3.28] for
    // 0.04 MB in 513 allocations; HashGroup 6.2 MB [6.7] for 2.4 MB;
    // Sort 6.0 MB [6.3] for 2.4 MB in 37 allocations [100]; the index
    // scan 3.0 MB [4.2] for 0.8 MB in 279 allocations [400]; StreamAgg
    // over the sort 5.33 MB [5.34] for 0.04 MB in 237 allocations [400];
    // the group-join over the sort, and a StreamAgg over the same join,
    // each 14.1 MB [14.7] for 0.06 MB in 600 allocations [1 184] (15.7
    // MB when the join composed its ids); the two-join chain 28.8 MB
    // [30.8] for 11.2 MB, two of its seven columns copies (31.2 MB when
    // its root composed the three parts' ids); a HashGroup over the join
    // 24.3 MB [24.9] and the sort over the join 22.4 MB [23.3], each for
    // 8.0 MB (25.9 and 24.0 MB when the join's ids were composed before
    // them). Materializing the inner join's columns, as the executor once
    // did, takes 37.6 MB and 32.0 MB for the chain and the sort.
    let plans = [
        (
            "HashJoin",
            2 * ROWS,
            join,
            rows / 10,
            Some(hash_join(rows, rows, false, pairs)),
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
            rows / 10,
            Some(hash_agg(rows, GROUPS as u64, GROUPS as u64, 2)),
        ),
        (
            "HashGroup",
            ROWS,
            push(
                &mut arena,
                PlanOp::HashGroup { input: s0, key },
                query.relation_set(0),
            ),
            rows / 10,
            Some(rows * 36),
        ),
        (
            "Sort",
            ROWS,
            push(
                &mut arena,
                PlanOp::Sort {
                    input: s0,
                    key: vec![catalog.attr("r0.k"), catalog.attr("r0.g")],
                },
                query.relation_set(0),
            ),
            4 * morsels,
            Some(2 * rows * 16),
        ),
        (
            "IndexScan",
            ROWS / 2,
            push(
                &mut arena,
                PlanOp::IndexScan { qrel: 2, index: 0 },
                query.relation_set(2),
            ),
            16 * morsels,
            Some(2 * rows * 16),
        ),
        (
            "StreamAgg(Sort)",
            GROUPS as usize,
            push(
                &mut arena,
                PlanOp::StreamAgg {
                    input: by_group,
                    key: query.group_by.clone(),
                    partial: false,
                },
                query.relation_set(0),
            ),
            16 * morsels,
            Some(2 * rows * 16 + rows * 4 + stream_agg(rows, 1, 1, GROUPS as u64, 1)),
        ),
        (
            "GroupJoin",
            GROUPS as usize,
            push(
                &mut arena,
                PlanOp::GroupJoin {
                    left: by_group,
                    right: s1,
                    edge: 0,
                },
                joined.clone(),
            ),
            16 * (morsels + pair_morsels),
            Some(agg_over_join),
        ),
        (
            "StreamAgg(HashJoin)",
            GROUPS as usize,
            push(
                &mut arena,
                PlanOp::StreamAgg {
                    input: grouped_join,
                    key: query.group_by.clone(),
                    partial: false,
                },
                joined.clone(),
            ),
            16 * (morsels + pair_morsels),
            Some(agg_over_join),
        ),
        // Two joins: the inner one's output is ids, never columns.
        (
            "HashJoin ⋈ r3",
            2 * ROWS,
            push(
                &mut arena,
                PlanOp::HashJoin {
                    left: join,
                    right: s3,
                    edge: 1,
                },
                chained,
            ),
            rows / 10,
            Some(
                hash_join(rows, rows, false, pairs)
                    + pairs * 2 * 4
                    + hash_join(rows, pairs, true, pairs),
            ),
        ),
        (
            "HashGroup(HashJoin)",
            2 * ROWS,
            push(
                &mut arena,
                PlanOp::HashGroup {
                    input: join,
                    key: query.group_by.clone(),
                },
                joined.clone(),
            ),
            rows / 10,
            Some(hash_join(rows, rows, false, pairs) + pairs * 48),
        ),
        (
            "Sort(HashJoin)",
            2 * ROWS,
            push(
                &mut arena,
                PlanOp::Sort {
                    input: join,
                    key: vec![catalog.attr("r1.w")],
                },
                joined,
            ),
            rows / 10,
            Some(hash_join(rows, rows, false, pairs) + 2 * pairs * 16 + pairs * 2 * 4),
        ),
    ];
    // A root that gathers a join's output, and an operator that keeps a
    // join's rows, read it through its pairs. Their output slack is 5 %,
    // so composing the join's ids first (1.6 MB, 2.4 MB at the chain's
    // three-part root) fails the bound.
    let through_pairs = [
        "HashJoin",
        "HashJoin ⋈ r3",
        "HashGroup(HashJoin)",
        "Sort(HashJoin)",
    ];
    for (op, rows_out, root, max_allocs, buffers) in plans {
        let (allocs, bytes) = (allocation_count(), allocated_bytes());
        let (out, stats) = execute_serial(&arena, root, &catalog, &query, &data).unwrap();
        let (allocs, bytes) = (allocation_count() - allocs, allocated_bytes() - bytes);
        assert_eq!(out.num_rows(), rows_out, "{op} output rows");
        assert!(stats.morsels as usize >= ROWS / ofw_exec::MORSEL_ROWS);
        assert!(allocs > 0, "the counting allocator is not installed");
        assert!(
            allocs <= max_allocs,
            "{op} over {ROWS} rows made {allocs} allocations (bound {max_allocs}) — \
             a per-row or per-run allocation is back"
        );
        // The work really happened: every group holds ROWS / GROUPS rows,
        // each joined to two `r1` rows under the group-join.
        if let Some(counts) = out.col(ColRef::Acc(1)) {
            let joins = matches!(op, "GroupJoin" | "StreamAgg(HashJoin)");
            let per_group = if joins { 2 } else { 1 } * (ROWS as i64) / GROUPS;
            assert!(counts.iter().all(|&c| c == per_group), "{op}");
        }
        let Some(buffers) = buffers else { continue };
        let out_bytes = column_bytes(&out);
        let slack = if through_pairs.contains(&op) {
            105
        } else {
            130
        };
        let bound = out_bytes * slack / 100 + buffers;
        assert!(
            bytes <= bound,
            "{op} allocated {bytes} bytes for {out_bytes} bytes of output columns \
             (bound {bound}) — an output value is allocated twice"
        );
    }
}
