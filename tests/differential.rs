//! Differential correctness harness for the vectorized executor.
//!
//! For every workload family × order-oracle arm, the DP's winning plan
//! is *executed* — morsel-driven, on real columns shaped by the
//! catalog's statistics — and compared against the canonical reference
//! plan (greedy left-deep hash joins, root-only aggregation, full
//! sorts). The two results must be equal as multisets of query-defined
//! rows ([`result_signature`]): whatever join order, interesting-order
//! trick or eager aggregate the optimizer picked, the *answer* must not
//! change. On top:
//!
//! * vectorized execution must be **byte-identical** at two morsel
//!   sizes — output columns; the counters count tasks, so they move
//!   with the morsel size;
//! * every intermediate plan of the winning tree must physically
//!   satisfy every ordering/grouping/head-tail property the DFSM claims
//!   for it (the vectorized twin of `tests/execution.rs`).

use ofw::catalog::{AttrId, Catalog};
use ofw::core::{LogicalProperty, OrderOracle, OrderingFramework, PruneConfig};
use ofw::exec::{
    execute_plan, execute_reference, execute_serial, reference_plan, result_signature, ColRef,
    ColTable, ExecOptions, ExecStats,
};
use ofw::obs::Trace;
use ofw::plangen::{ExplicitOracle, PlanArena, PlanGen, PlanId};
use ofw::query::extract::ExtractOptions;
use ofw::query::Query;
use ofw::simmen::SimmenFramework;
use ofw::workload::{
    generate_columns, grouping_query, groupjoin_showcase_query, partialsort_showcase_query,
    q13_style_query, q8_query, random_query, star_agg_query, star_agg_query_ordered, DataConfig,
    GroupingQueryConfig, RandomQueryConfig, StarAggConfig,
};

/// Executes the DP winner for one oracle arm and asserts its result
/// signature matches the reference arm's.
#[allow(clippy::too_many_arguments)]
fn run_arm<S: Copy>(
    arena: &PlanArena<S>,
    best: PlanId,
    catalog: &Catalog,
    query: &Query,
    data: &[Vec<Vec<i64>>],
    want: &[Vec<i64>],
    ctx: &str,
    arm: &str,
) -> (ColTable, ExecStats) {
    let (out, stats) = execute_serial(arena, best, catalog, query, data)
        .unwrap_or_else(|e| panic!("{ctx} [{arm}]: execution failed: {e}"));
    assert_eq!(
        result_signature(query, &out),
        want,
        "{ctx} [{arm}]: DP plan result diverges from the reference plan\nplan:\n{}",
        arena.explain(best, catalog, query).text(),
    );
    (out, stats)
}

/// `plan` executed at `morsel` rows per morsel, untraced.
fn execute_at<S: Copy>(
    arena: &PlanArena<S>,
    plan: PlanId,
    catalog: &Catalog,
    query: &Query,
    data: &[Vec<Vec<i64>>],
    morsel: usize,
) -> Result<(ColTable, ExecStats), ofw::exec::ExecError> {
    let opts = ExecOptions {
        morsel_rows: morsel,
    };
    execute_plan(
        arena,
        plan,
        catalog,
        query,
        data,
        &(),
        &opts,
        &Trace::disabled(),
    )
}

/// Re-executes a plan at 64 rows per morsel and asserts its output is
/// byte-identical with `out`, the output at another morsel size. The
/// counters count tasks, so they differ and are not compared.
fn assert_morsel_invariant<S: Copy>(
    arena: &PlanArena<S>,
    best: PlanId,
    catalog: &Catalog,
    query: &Query,
    data: &[Vec<Vec<i64>>],
    out: &ColTable,
    ctx: &str,
) {
    let (again, _) = execute_at(arena, best, catalog, query, data, 64)
        .unwrap_or_else(|e| panic!("{ctx}: execution at 64 rows a morsel failed: {e}"));
    assert!(
        again == *out,
        "{ctx}: output not byte-identical at 64 rows a morsel"
    );
}

/// Executes every plan in the winning tree and asserts each claimed
/// DFSM property holds physically on the vectorized stream.
fn assert_tree_properties(
    arena: &PlanArena<ofw::core::State>,
    root: PlanId,
    catalog: &Catalog,
    query: &Query,
    fw: &OrderingFramework,
    data: &[Vec<Vec<i64>>],
    ctx: &str,
) {
    let mut stack = vec![root];
    let mut seen = std::collections::HashSet::new();
    while let Some(id) = stack.pop() {
        if !seen.insert(id.0) {
            continue;
        }
        let node = arena.node(id);
        stack.extend(node.op.inputs());
        let (out, _) = execute_serial(arena, id, catalog, query, data)
            .unwrap_or_else(|e| panic!("{ctx}: intermediate {id:?} failed: {e}"));
        let covered = |attrs: &[AttrId]| attrs.iter().all(|&a| node.mask.contains(query.owner(a)));
        for (p, handle) in fw.properties() {
            if !covered(p.attrs()) || !fw.satisfies(node.state, handle) {
                continue;
            }
            let holds = match &p {
                LogicalProperty::Ordering(o) => out.satisfies_ordering(o.attrs()),
                LogicalProperty::Grouping(g) => out.satisfies_grouping(g.attrs()),
                LogicalProperty::HeadTail(h) => {
                    out.satisfies_head_tail(h.head_attrs(), h.tail_attrs())
                }
            };
            assert!(
                holds,
                "{ctx} {id:?}: claimed {p:?} violated\n{}",
                arena.explain(id, catalog, query).text(),
            );
        }
    }
}

/// The full differential check for one query: reference execution, all
/// three oracle arms, byte identity across morsel sizes, intermediate
/// property checks.
fn differential_check(catalog: &Catalog, query: &Query, data_seed: u64, ctx: &str) {
    let ex = ofw::query::extract(catalog, query, &ExtractOptions::default());
    let data = generate_columns(catalog, query, &DataConfig::small(data_seed));

    let (ref_arena, ref_root) = reference_plan(query);
    let (ref_out, _) = execute_serial(&ref_arena, ref_root, catalog, query, &data)
        .unwrap_or_else(|e| panic!("{ctx}: reference plan failed: {e}"));
    let want = result_signature(query, &ref_out);
    // The reference arm must be morsel-size-invariant too.
    let ctx_ref = format!("{ctx} [reference]");
    assert_morsel_invariant(
        &ref_arena, ref_root, catalog, query, &data, &ref_out, &ctx_ref,
    );

    // Arm 1: the paper's DFSM — plus determinism and property checks.
    let fw = OrderingFramework::prepare(&ex.spec, PruneConfig::default()).unwrap();
    let r = PlanGen::new(catalog, query, &ex, &fw).run();
    let (out, _) = run_arm(&r.arena, r.best, catalog, query, &data, &want, ctx, "dfsm");
    let ctx_dfsm = format!("{ctx} [dfsm]");
    assert_morsel_invariant(&r.arena, r.best, catalog, query, &data, &out, &ctx_dfsm);
    assert_tree_properties(&r.arena, r.best, catalog, query, &fw, &data, ctx);

    // Arm 2: the Simmen baseline.
    let sf = SimmenFramework::prepare(&ex.spec);
    let rs = PlanGen::new(catalog, query, &ex, &sf).run();
    run_arm(
        &rs.arena, rs.best, catalog, query, &data, &want, ctx, "simmen",
    );

    // Arm 3: the explicit-set ground truth.
    let eo = ExplicitOracle::prepare(&ex.spec);
    let re = PlanGen::new(catalog, query, &ex, &eo).run();
    run_arm(
        &re.arena, re.best, catalog, query, &data, &want, ctx, "explicit",
    );
}

#[test]
fn chain_queries_agree_across_arms_and_threads() {
    for n in [3usize, 4, 5] {
        for seed in 0..4u64 {
            let (catalog, query) = random_query(&RandomQueryConfig {
                num_relations: n,
                extra_edges: 0,
                seed,
            });
            differential_check(
                &catalog,
                &query,
                seed * 31 + 5,
                &format!("chain n={n} seed={seed}"),
            );
        }
    }
}

#[test]
fn cyclic_queries_agree_across_arms_and_threads() {
    for n in [4usize, 5] {
        for seed in 0..4u64 {
            let (catalog, query) = random_query(&RandomQueryConfig {
                num_relations: n,
                extra_edges: 2,
                seed,
            });
            differential_check(
                &catalog,
                &query,
                seed * 17 + 11,
                &format!("cyclic n={n} seed={seed}"),
            );
        }
    }
}

#[test]
fn star_aggregation_queries_agree_across_arms_and_threads() {
    for dims in [2usize, 3] {
        for seed in 0..3u64 {
            let (catalog, query) = star_agg_query(&StarAggConfig {
                dimensions: dims,
                seed,
            });
            differential_check(
                &catalog,
                &query,
                seed * 13 + 2,
                &format!("star-agg dims={dims} seed={seed}"),
            );
            let (catalog, query) = star_agg_query_ordered(&StarAggConfig {
                dimensions: dims,
                seed,
            });
            differential_check(
                &catalog,
                &query,
                seed * 13 + 3,
                &format!("star-agg-ordered dims={dims} seed={seed}"),
            );
        }
    }
}

#[test]
fn grouping_queries_agree_across_arms_and_threads() {
    for n in [3usize, 4] {
        for seed in 0..4u64 {
            let (catalog, query) = grouping_query(&GroupingQueryConfig {
                num_relations: n,
                extra_edges: 0,
                seed,
            });
            differential_check(
                &catalog,
                &query,
                seed * 7 + 1,
                &format!("grouping n={n} seed={seed}"),
            );
        }
    }
}

#[test]
fn showcase_and_q8_queries_agree_across_arms_and_threads() {
    let (catalog, query) = q8_query();
    differential_check(&catalog, &query, 42, "tpch-q8");
    let (catalog, query) = groupjoin_showcase_query();
    differential_check(&catalog, &query, 43, "groupjoin-showcase");
    let (catalog, query) = partialsort_showcase_query();
    differential_check(&catalog, &query, 44, "partialsort-showcase");
}

/// Morsel-scale determinism: thousands of rows across many morsels,
/// with a deliberately small morsel size so the in-order reassembly is
/// exercised hard — byte-identical at 512 and 64 rows a morsel. The
/// q13-style winner streams its aggregate straight over a hash join, so
/// the aggregate reads the join's pair list, left pending, across
/// several probe morsels.
#[test]
fn morsel_scale_execution_is_morsel_size_invariant() {
    let shapes = [
        (
            "star-agg",
            star_agg_query(&StarAggConfig {
                dimensions: 3,
                seed: 9,
            }),
        ),
        ("q13-style", q13_style_query()),
    ];
    for (label, (catalog, query)) in shapes {
        let data = generate_columns(
            &catalog,
            &query,
            &DataConfig {
                scale: 1.0,
                min_rows: 3_000,
                max_rows: 9_000,
                domain_cap: Some(64),
                seed: 77,
            },
        );
        let ex = ofw::query::extract(&catalog, &query, &ExtractOptions::default());
        let fw = OrderingFramework::prepare(&ex.spec, PruneConfig::default()).unwrap();
        let r = PlanGen::new(&catalog, &query, &ex, &fw).run();
        let serial = execute_at(&r.arena, r.best, &catalog, &query, &data, 512).unwrap();
        assert!(
            serial.1.morsels > 8,
            "{label}: expected a genuinely multi-morsel execution, got {} morsels",
            serial.1.morsels
        );
        let ctx = format!("morsel-scale {label}");
        assert_morsel_invariant(&r.arena, r.best, &catalog, &query, &data, &serial.0, &ctx);

        // The reference arm at the same scale, and the differential answer.
        let (ref_arena, ref_root) = reference_plan(&query);
        let (ref_out, _) = execute_serial(&ref_arena, ref_root, &catalog, &query, &data).unwrap();
        assert_eq!(
            result_signature(&query, &serial.0),
            result_signature(&query, &ref_out),
            "{ctx}: DP plan diverges from reference"
        );
        if label == "q13-style" {
            let root = &r.arena.node(r.best).op;
            let input = r.arena.node(root.inputs().next().unwrap()).op.name();
            assert_eq!((root.name(), input), ("StreamAgg", "HashJoin"), "{ctx}");
            let pairs = serial.1.ops["HashJoin"].rows;
            assert!(pairs > 4 * 512, "{ctx}: {pairs} pairs");
        }
    }
}

/// Zero pairs into every aggregate that reads a join's output: an empty
/// probe side, an empty build side, and two non-empty sides whose keys
/// never meet (each probe morsel then hands on an empty pair list). Each
/// aggregate — streaming, hashed, final and partial, and the group-join —
/// emits no row, with the reference executor's attribute schema,
/// byte-identical at 2 and 64 rows a morsel.
#[test]
fn aggregates_over_joins_with_no_pairs() {
    use ofw::plangen::plan::AggMark;
    use ofw::plangen::{PlanNode, PlanOp};
    use ofw::query::{AggCall, AggFunc, JoinEdge};
    let mut catalog = Catalog::new();
    let r = catalog.add_relation("r", 8.0, &["k", "g", "v"]);
    let s = catalog.add_relation("s", 8.0, &["k", "w"]);
    let mut query = Query::new();
    query.add_relation(&catalog, r);
    query.add_relation(&catalog, s);
    query.joins.push(JoinEdge {
        left: catalog.attr("r.k"),
        right: catalog.attr("s.k"),
        selectivity: 0.1,
    });
    query.group_by = vec![catalog.attr("r.g")];
    let call = |func, input: Option<&str>| AggCall {
        func,
        input: input.map(|a| catalog.attr(a)),
    };
    query.aggregates = vec![
        call(AggFunc::Sum, Some("r.v")),
        call(AggFunc::Count, None),
        call(AggFunc::Min, Some("s.w")),
    ];
    let mut arena: PlanArena<()> = PlanArena::new();
    let mut push = |op, qrels: &[usize]| {
        let mut mask = query.relation_set(qrels[0]);
        for &q in &qrels[1..] {
            mask.union_with(&query.relation_set(q));
        }
        arena.push(PlanNode {
            op,
            mask,
            cost: 0.0,
            card: 0.0,
            state: (),
            agg: AggMark::NONE,
            applied_fds: Default::default(),
        })
    };
    let (scan_r, scan_s) = (
        push(PlanOp::Scan { qrel: 0 }, &[0]),
        push(PlanOp::Scan { qrel: 1 }, &[1]),
    );
    let (left, right, edge) = (scan_r, scan_s, 0);
    let join = push(PlanOp::HashJoin { left, right, edge }, &[0, 1]);
    let mut roots = vec![push(PlanOp::GroupJoin { left, right, edge }, &[0, 1])];
    for partial in [false, true] {
        let (input, key) = (join, query.group_by.clone());
        let stream = PlanOp::StreamAgg {
            input,
            key: key.clone(),
            partial,
        };
        roots.push(push(stream, &[0, 1]));
        roots.push(push(
            PlanOp::HashAgg {
                input,
                key,
                partial,
            },
            &[0, 1],
        ));
    }
    let some: Vec<i64> = (0..9).collect();
    let far: Vec<i64> = (100..107).collect();
    for (case, r_keys, s_keys) in [
        ("empty probe side", &[][..], &some[..]),
        ("empty build side", &some[..], &[][..]),
        ("no key meets", &some[..], &far[..]),
    ] {
        let data = vec![key_columns(r_keys, 3), key_columns(s_keys, 2)];
        for &root in &roots {
            let ctx = format!("{case}, {}", arena.node(root).op.name());
            let serial = execute_at(&arena, root, &catalog, &query, &data, 2)
                .unwrap_or_else(|e| panic!("{ctx}: {e}"));
            assert_eq!(serial.0.num_rows(), 0, "{ctx}");
            assert_eq!(serial.1.rows_out, 0, "{ctx}");
            let reference = execute_reference(&arena, root, &catalog, &query, &data)
                .unwrap_or_else(|e| panic!("{ctx}: {e}"));
            assert_eq!(serial.0.attr_ids(), reference.attr_ids(), "{ctx}");
            assert!(
                serial.0.schema.len() > reference.schema.len(),
                "{ctx}: no value column"
            );
            assert_eq!(reference.num_rows(), 0, "{ctx}");
            assert_morsel_invariant(&arena, root, &catalog, &query, &data, &serial.0, &ctx);
        }
    }
}

/// Per key `k`, the row `(k, k % 3 + 1, k % 3 + 2, ..)` of `width`
/// columns, column-major.
fn key_columns(keys: &[i64], width: usize) -> Vec<Vec<i64>> {
    let value = |k: i64, c: i64| if c == 0 { k } else { k % 3 + c };
    (0..width as i64)
        .map(|c| keys.iter().map(|&k| value(k, c)).collect())
        .collect()
}

/// `r(k, g, v) ⋈ s(k, w)` on `k`, and `u(w, x)` joined to `s` on `w`,
/// grouped by `r.g` with `sum(r.v)`, `count(*)` and `min(s.w)`.
fn three_relation_join_query() -> (Catalog, Query) {
    use ofw::query::{AggCall, AggFunc, JoinEdge};
    let mut catalog = Catalog::new();
    let r = catalog.add_relation("r", 8.0, &["k", "g", "v"]);
    let s = catalog.add_relation("s", 8.0, &["k", "w"]);
    let u = catalog.add_relation("u", 8.0, &["w", "x"]);
    let mut query = Query::new();
    for rel in [r, s, u] {
        query.add_relation(&catalog, rel);
    }
    for (left, right) in [("r.k", "s.k"), ("s.w", "u.w")] {
        query.joins.push(JoinEdge {
            left: catalog.attr(left),
            right: catalog.attr(right),
            selectivity: 0.1,
        });
    }
    query.group_by = vec![catalog.attr("r.g")];
    let call = |func, input: Option<&str>| AggCall {
        func,
        input: input.map(|a| catalog.attr(a)),
    };
    query.aggregates = vec![
        call(AggFunc::Sum, Some("r.v")),
        call(AggFunc::Count, None),
        call(AggFunc::Min, Some("s.w")),
    ];
    (catalog, query)
}

/// Pushes `op` onto `arena`, its mask the relations `qrels` of `query`.
fn push_op(
    arena: &mut PlanArena<()>,
    query: &Query,
    op: ofw::plangen::PlanOp,
    qrels: &[usize],
) -> PlanId {
    let mut mask = query.relation_set(qrels[0]);
    for &q in &qrels[1..] {
        mask.union_with(&query.relation_set(q));
    }
    arena.push(ofw::plangen::PlanNode {
        op,
        mask,
        cost: 0.0,
        card: 0.0,
        state: (),
        agg: ofw::plangen::plan::AggMark::NONE,
        applied_fds: Default::default(),
    })
}

/// Zero pairs into every consumer of a join's output that is not an
/// aggregate: `Sort`, `PartialSort`, `HashGroup`, a parent `HashJoin`, and
/// the join itself as the root, which gathers through its pairs. An empty
/// probe side, an empty build side, and keys that never meet each give no
/// row, with the reference executor's schema, byte-identical at 2 and
/// 64 rows a morsel.
#[test]
fn other_consumers_of_joins_with_no_pairs() {
    use ofw::plangen::PlanOp;
    let (catalog, query) = three_relation_join_query();
    let mut arena: PlanArena<()> = PlanArena::new();
    let mut push = |op, qrels: &[usize]| push_op(&mut arena, &query, op, qrels);
    let scans = [0, 1, 2].map(|qrel| push(PlanOp::Scan { qrel }, &[qrel]));
    let join = push(
        PlanOp::HashJoin {
            left: scans[0],
            right: scans[1],
            edge: 0,
        },
        &[0, 1],
    );
    let (g, w) = (catalog.attr("r.g"), catalog.attr("s.w"));
    let roots = [
        join,
        push(
            PlanOp::Sort {
                input: join,
                key: vec![g, w],
            },
            &[0, 1],
        ),
        push(
            PlanOp::PartialSort {
                input: join,
                key: vec![g, w],
                head: vec![g],
            },
            &[0, 1],
        ),
        push(
            PlanOp::HashGroup {
                input: join,
                key: vec![g],
            },
            &[0, 1],
        ),
        push(
            PlanOp::HashJoin {
                left: join,
                right: scans[2],
                edge: 1,
            },
            &[0, 1, 2],
        ),
    ];
    let some: Vec<i64> = (0..9).collect();
    let far: Vec<i64> = (100..107).collect();
    let rels = [0, 1, 2].map(|q| query.relations[q]);
    for (case, r_keys, s_keys) in [
        ("empty probe side", &[][..], &some[..]),
        ("empty build side", &some[..], &[][..]),
        ("no key meets", &some[..], &far[..]),
    ] {
        let keys = [r_keys, s_keys, &some[..]];
        let data: Vec<Vec<Vec<i64>>> = (0..3)
            .map(|q| key_columns(keys[q], catalog.relation(rels[q]).attrs.len()))
            .collect();
        for root in roots {
            let ctx = format!("{case}, {}", arena.node(root).op.name());
            let serial = execute_at(&arena, root, &catalog, &query, &data, 2)
                .unwrap_or_else(|e| panic!("{ctx}: {e}"));
            assert_eq!(serial.0.num_rows(), 0, "{ctx}");
            assert_eq!(serial.1.rows_out, 0, "{ctx}");
            let reference = execute_reference(&arena, root, &catalog, &query, &data)
                .unwrap_or_else(|e| panic!("{ctx}: {e}"));
            assert_eq!(serial.0.attr_ids(), reference.attr_ids(), "{ctx}");
            assert_eq!(serial.0.schema.len(), reference.schema.len(), "{ctx}");
            assert_eq!(reference.num_rows(), 0, "{ctx}");
            assert_morsel_invariant(&arena, root, &catalog, &query, &data, &serial.0, &ctx);
        }
    }
}

/// A join's pair list over several 512-row probe morsels, read by `Sort`,
/// `HashGroup` and the root gather, with eager partial aggregates below
/// the join on both sides, so that weights and `sum` and `min`
/// accumulators pass through the ids each one composes. Every output is
/// byte-identical at 512 and 64 rows a morsel and equals the reference
/// executor's rows;
/// the sort and the hash grouping hold the join's rows, values included,
/// in their own order.
#[test]
fn consumers_read_a_pair_list_across_probe_morsels() {
    use ofw::plangen::PlanOp;
    let (catalog, query) = three_relation_join_query();
    let mut arena: PlanArena<()> = PlanArena::new();
    let mut push = |op, qrels: &[usize]| push_op(&mut arena, &query, op, qrels);
    let (k, g) = (catalog.attr("r.k"), catalog.attr("r.g"));
    let (sk, w) = (catalog.attr("s.k"), catalog.attr("s.w"));
    let scans = [0, 1].map(|qrel| push(PlanOp::Scan { qrel }, &[qrel]));
    let partial = |input: PlanId, key: Vec<AttrId>| PlanOp::HashAgg {
        input,
        key,
        partial: true,
    };
    let left = push(partial(scans[0], vec![k, g]), &[0]);
    let right = push(partial(scans[1], vec![sk, w]), &[1]);
    let join = push(
        PlanOp::HashJoin {
            left,
            right,
            edge: 0,
        },
        &[0, 1],
    );
    let sort = push(
        PlanOp::Sort {
            input: join,
            key: vec![g, w],
        },
        &[0, 1],
    );
    let group = push(
        PlanOp::HashGroup {
            input: join,
            key: vec![g],
        },
        &[0, 1],
    );
    // 3 000 `(k, g)` groups of two rows on `r`, 2 000 `(k, w)` groups of
    // two on `s`: 6 000 pairs from six probe morsels.
    let (r, s) = (0..6_000i64, 0..4_000i64);
    let data = vec![
        vec![
            r.clone().map(|i| i % 1_000).collect(),
            r.clone().map(|i| i / 1_000 % 3).collect(),
            r.collect(),
        ],
        vec![
            s.clone().map(|i| i % 1_000).collect(),
            s.map(|i| i / 1_000 % 2).collect(),
        ],
        vec![Vec::new(), Vec::new()],
    ];
    let mut all_rows = Vec::new();
    for root in [join, sort, group] {
        let ctx = format!("morsel-scale {}", arena.node(root).op.name());
        let serial = execute_at(&arena, root, &catalog, &query, &data, 512)
            .unwrap_or_else(|e| panic!("{ctx}: {e}"));
        assert_morsel_invariant(&arena, root, &catalog, &query, &data, &serial.0, &ctx);
        let (out, stats) = &serial;
        assert_eq!(stats.ops["HashJoin"].rows, 6_000, "{ctx}");
        let reference = execute_reference(&arena, root, &catalog, &query, &data)
            .unwrap_or_else(|e| panic!("{ctx}: {e}"));
        assert_eq!(out.attr_ids(), reference.attr_ids(), "{ctx}");
        assert_eq!(out.cols[..reference.cols.len()], reference.cols, "{ctx}");
        let values = [ColRef::Weight, ColRef::Acc(0), ColRef::Acc(2)];
        assert!(
            values.iter().all(|&c| out.col(c).is_some()),
            "{ctx}: {:?}",
            out.schema
        );
        let mut rows: Vec<Vec<i64>> = (0..out.num_rows())
            .map(|r| out.cols.iter().map(|c| c[r]).collect())
            .collect();
        rows.sort_unstable();
        all_rows.push((out.schema.clone(), rows));
    }
    assert!(
        all_rows.iter().all(|r| *r == all_rows[0]),
        "a consumer changed the join's rows"
    );
}
