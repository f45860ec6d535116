//! Property tests for the hash operators' *scrambled-but-deterministic*
//! output order at morsel scale.
//!
//! The reference tuple executor deliberately emits hash-aggregate groups
//! and hash-group blocks in a scrambled deterministic order (reverse +
//! even/odd interleave of first-seen order), so no ordering claim can
//! survive a hash operator by accident. The vectorized engine must
//! reproduce that order *exactly* — even though it aggregates per
//! morsel and merges — and must keep it byte-stable across repeated
//! runs, for random row counts, group counts, morsel sizes and seeds
//! (the expected order is computed without morsels, so every drawn
//! morsel size must reach it).

use ofw::catalog::Catalog;
use ofw::exec::{execute_plan, ExecOptions};
use ofw::obs::Trace;
use ofw::plangen::plan::AggMark;
use ofw::plangen::{PlanArena, PlanId, PlanNode, PlanOp};
use ofw::query::{AggCall, AggFunc, Query};
use ofw::workload::{generate_columns, DataConfig};
use proptest::prelude::*;

/// One single-relation grouping fixture: catalog, query (`group by g`,
/// `sum(v)`, `count(*)`, `min(v)`, `max(v)`), and base columns with
/// ~`groups` distinct keys.
fn fixture(rows: usize, groups: i64, seed: u64) -> (Catalog, Query, Vec<Vec<Vec<i64>>>) {
    let mut catalog = Catalog::new();
    let rel = catalog.add_relation("r0", rows as f64, &["g", "v"]);
    let g = catalog.attr("r0.g");
    catalog.set_distinct_values(g, groups as f64);
    let mut query = Query::new();
    query.add_relation(&catalog, rel);
    query.group_by = vec![g];
    query.aggregates = vec![
        AggCall {
            func: AggFunc::Sum,
            input: Some(catalog.attr("r0.v")),
        },
        AggCall {
            func: AggFunc::Count,
            input: None,
        },
        AggCall {
            func: AggFunc::Min,
            input: Some(catalog.attr("r0.v")),
        },
        AggCall {
            func: AggFunc::Max,
            input: Some(catalog.attr("r0.v")),
        },
    ];
    let data = generate_columns(
        &catalog,
        &query,
        &DataConfig {
            scale: 1.0,
            min_rows: rows,
            max_rows: rows,
            domain_cap: None,
            seed,
        },
    );
    (catalog, query, data)
}

/// Single-input plan: `Scan(r0)` under the given operator.
fn plan_over_scan(query: &Query, op: impl FnOnce(PlanId) -> PlanOp) -> (PlanArena<()>, PlanId) {
    let mut arena: PlanArena<()> = PlanArena::new();
    let mask = query.relation_set(0);
    let node = |op: PlanOp, mask| PlanNode {
        op,
        mask,
        cost: 0.0,
        card: 0.0,
        state: (),
        agg: AggMark::NONE,
        applied_fds: Default::default(),
    };
    let scan = arena.push(node(PlanOp::Scan { qrel: 0 }, mask.clone()));
    let root = arena.push(node(op(scan), mask));
    (arena, root)
}

/// The legacy scramble, reimplemented independently of the engine:
/// reverse, then even positions, then odd positions.
fn legacy_scramble<T: Clone>(items: &[T]) -> Vec<T> {
    let rev: Vec<T> = items.iter().rev().cloned().collect();
    let mut out: Vec<T> = rev.iter().step_by(2).cloned().collect();
    out.extend(rev.iter().skip(1).step_by(2).cloned());
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Hash aggregation: group order equals the legacy scramble of the
    /// global first-seen order, and sums/counts/mins/maxes are exact — identical
    /// across repeated runs, at any morsel size.
    #[test]
    fn hash_agg_scramble_is_deterministic_at_morsel_scale(
        rows in 1_500usize..5_000,
        groups in 2i64..40,
        morsel in 64usize..700,
        seed in 0u64..10_000,
    ) {
        let (catalog, query, data) = fixture(rows, groups, seed);
        let g_col = &data[0][0];
        let v_col = &data[0][1];
        let (arena, root) = plan_over_scan(&query, |scan| PlanOp::HashAgg {
            input: scan,
            key: query.group_by.clone(),
            partial: false,
        });
        let opts = ExecOptions { morsel_rows: morsel };
        let serial = execute_plan(
            &arena, root, &catalog, &query, &data,
            &(), &opts, &Trace::disabled(),
        ).unwrap();
        prop_assert!(serial.1.morsels > 2, "fixture must span several morsels");

        // Expected: first-seen group order, scrambled the legacy way,
        // with exact per-group sum, count, min and max.
        let mut order: Vec<i64> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for &k in g_col {
            if seen.insert(k) {
                order.push(k);
            }
        }
        let expected_keys = legacy_scramble(&order);
        let mut sums = std::collections::HashMap::new();
        let mut counts = std::collections::HashMap::new();
        let mut mins = std::collections::HashMap::new();
        let mut maxs = std::collections::HashMap::new();
        for (&k, &v) in g_col.iter().zip(v_col) {
            *sums.entry(k).or_insert(0i64) += v;
            *counts.entry(k).or_insert(0i64) += 1;
            mins.entry(k).and_modify(|m: &mut i64| *m = (*m).min(v)).or_insert(v);
            maxs.entry(k).and_modify(|m: &mut i64| *m = (*m).max(v)).or_insert(v);
        }
        let g = catalog.attr("r0.g");
        let out_keys = serial.0.col(ofw::exec::ColRef::Attr(g)).unwrap();
        prop_assert_eq!(out_keys, &expected_keys[..], "group order must be the legacy scramble");
        let out_sums = serial.0.col(ofw::exec::ColRef::Acc(0)).unwrap();
        let out_counts = serial.0.col(ofw::exec::ColRef::Acc(1)).unwrap();
        let out_mins = serial.0.col(ofw::exec::ColRef::Acc(2)).unwrap();
        let out_maxs = serial.0.col(ofw::exec::ColRef::Acc(3)).unwrap();
        for (i, &k) in expected_keys.iter().enumerate() {
            prop_assert_eq!(out_sums[i], sums[&k], "sum(v) wrong for group {}", k);
            prop_assert_eq!(out_counts[i], counts[&k], "count(*) wrong for group {}", k);
            prop_assert_eq!(out_mins[i], mins[&k], "min(v) wrong for group {}", k);
            prop_assert_eq!(out_maxs[i], maxs[&k], "max(v) wrong for group {}", k);
        }

        // Stability: a repeated run.
        let again = execute_plan(
            &arena, root, &catalog, &query, &data,
            &(), &opts, &Trace::disabled(),
        ).unwrap();
        prop_assert_eq!(&again.0, &serial.0);
        prop_assert_eq!(&again.1, &serial.1);
    }

    /// Hash grouping: blocks are the legacy scramble of first-seen key
    /// order, rows keep their relative order inside each block, and the
    /// whole stream is the same at any morsel size.
    #[test]
    fn hash_group_scramble_is_deterministic_at_morsel_scale(
        rows in 1_500usize..5_000,
        groups in 2i64..40,
        morsel in 64usize..700,
        seed in 10_000u64..20_000,
    ) {
        let (catalog, query, data) = fixture(rows, groups, seed);
        let g_col = &data[0][0];
        let v_col = &data[0][1];
        let (arena, root) = plan_over_scan(&query, |scan| PlanOp::HashGroup {
            input: scan,
            key: query.group_by.clone(),
        });
        let opts = ExecOptions { morsel_rows: morsel };
        let serial = execute_plan(
            &arena, root, &catalog, &query, &data,
            &(), &opts, &Trace::disabled(),
        ).unwrap();

        // Expected stream: per-key row lists in first-seen key order,
        // block order scrambled, rows inside a block in input order.
        let mut order: Vec<i64> = Vec::new();
        let mut blocks: std::collections::HashMap<i64, Vec<(i64, i64)>> =
            std::collections::HashMap::new();
        for (&k, &v) in g_col.iter().zip(v_col) {
            blocks.entry(k).or_insert_with(|| {
                order.push(k);
                Vec::new()
            }).push((k, v));
        }
        let expected: Vec<(i64, i64)> = legacy_scramble(&order)
            .into_iter()
            .flat_map(|k| blocks[&k].clone())
            .collect();
        let g = catalog.attr("r0.g");
        let v = catalog.attr("r0.v");
        let out_g = serial.0.col(ofw::exec::ColRef::Attr(g)).unwrap();
        let out_v = serial.0.col(ofw::exec::ColRef::Attr(v)).unwrap();
        let got: Vec<(i64, i64)> = out_g.iter().copied().zip(out_v.iter().copied()).collect();
        prop_assert_eq!(got, expected, "hash-group stream must be the scrambled block order");
        prop_assert!(serial.0.satisfies_grouping(&[g]));
    }
}
