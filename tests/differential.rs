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
//! * vectorized execution must be **byte-identical** at 1, 2 and 8 pool
//!   threads — output columns *and* deterministic counters;
//! * every intermediate plan of the winning tree must physically
//!   satisfy every ordering/grouping/head-tail property the DFSM claims
//!   for it (the vectorized twin of `tests/execution.rs`).

use ofw::catalog::{AttrId, Catalog};
use ofw::core::{OrderOracle, OrderingFramework, PruneConfig};
use ofw::exec::{
    execute_plan, execute_serial, reference_plan, result_signature, ColTable, ExecOptions,
    ExecStats,
};
use ofw::obs::Trace;
use ofw::parallel::ThreadPool;
use ofw::plangen::{ExplicitOracle, PlanArena, PlanGen, PlanId};
use ofw::query::extract::ExtractOptions;
use ofw::query::Query;
use ofw::simmen::SimmenFramework;
use ofw::workload::{
    generate_columns, grouping_query, groupjoin_showcase_query, partialsort_showcase_query,
    q8_query, random_query, star_agg_query, star_agg_query_ordered, DataConfig,
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
        arena.render(best, &|q| catalog.relation(query.relations[q]).name.clone()),
    );
    (out, stats)
}

/// Re-executes a plan at several pool widths and asserts byte identity
/// with the serial result — columns and counters.
#[allow(clippy::too_many_arguments)]
fn assert_thread_invariant<S: Copy>(
    arena: &PlanArena<S>,
    best: PlanId,
    catalog: &Catalog,
    query: &Query,
    data: &[Vec<Vec<i64>>],
    serial: &(ColTable, ExecStats),
    opts: &ExecOptions,
    ctx: &str,
) {
    for threads in [2usize, 8] {
        let pool = ThreadPool::new(threads);
        let (out, stats) = execute_plan(
            arena,
            best,
            catalog,
            query,
            data,
            &pool,
            opts,
            &Trace::disabled(),
        )
        .unwrap_or_else(|e| panic!("{ctx}: pooled execution ({threads} threads) failed: {e}"));
        assert_eq!(
            out, serial.0,
            "{ctx}: output not byte-identical at {threads} threads"
        );
        assert_eq!(
            stats, serial.1,
            "{ctx}: counters not deterministic at {threads} threads"
        );
    }
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
        for (ordering, handle) in fw.orders() {
            if covered(ordering.attrs()) && fw.satisfies(node.state, handle) {
                assert!(
                    out.satisfies_ordering(ordering.attrs()),
                    "{ctx} {id:?}: claimed ordering {ordering:?} violated\n{}",
                    arena.render(id, &|q| catalog.relation(query.relations[q]).name.clone()),
                );
            }
        }
        for (grouping, handle) in fw.groupings() {
            if covered(grouping.attrs()) && fw.satisfies(node.state, handle) {
                assert!(
                    out.satisfies_grouping(grouping.attrs()),
                    "{ctx} {id:?}: claimed grouping {grouping:?} violated\n{}",
                    arena.render(id, &|q| catalog.relation(query.relations[q]).name.clone()),
                );
            }
        }
        for (pair, handle) in fw.head_tails() {
            if covered(pair.attrs()) && fw.satisfies(node.state, handle) {
                assert!(
                    out.satisfies_head_tail(pair.head_attrs(), pair.tail_attrs()),
                    "{ctx} {id:?}: claimed head/tail {pair:?} violated\n{}",
                    arena.render(id, &|q| catalog.relation(query.relations[q]).name.clone()),
                );
            }
        }
    }
}

/// The full differential check for one query: reference execution, all
/// three oracle arms, cross-thread byte identity, intermediate property
/// checks.
fn differential_check(catalog: &Catalog, query: &Query, data_seed: u64, ctx: &str) {
    let ex = ofw::query::extract(catalog, query, &ExtractOptions::default());
    let data = generate_columns(catalog, query, &DataConfig::small(data_seed));

    let (ref_arena, ref_root) = reference_plan(query);
    let (ref_out, _) = execute_serial(&ref_arena, ref_root, catalog, query, &data)
        .unwrap_or_else(|e| panic!("{ctx}: reference plan failed: {e}"));
    let want = result_signature(query, &ref_out);
    // The reference arm must be thread-invariant too.
    let ref_serial = execute_serial(&ref_arena, ref_root, catalog, query, &data).unwrap();
    assert_thread_invariant(
        &ref_arena,
        ref_root,
        catalog,
        query,
        &data,
        &ref_serial,
        &ExecOptions::default(),
        &format!("{ctx} [reference]"),
    );

    // Arm 1: the paper's DFSM — plus determinism and property checks.
    let fw = OrderingFramework::prepare(&ex.spec, PruneConfig::default()).unwrap();
    let r = PlanGen::new(catalog, query, &ex, &fw).run();
    let serial = run_arm(&r.arena, r.best, catalog, query, &data, &want, ctx, "dfsm");
    assert_thread_invariant(
        &r.arena,
        r.best,
        catalog,
        query,
        &data,
        &serial,
        &ExecOptions::default(),
        &format!("{ctx} [dfsm]"),
    );
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
/// with a deliberately small morsel size so the order-preserving merge
/// is exercised hard — still byte-identical at 1/2/8 threads.
#[test]
fn morsel_scale_execution_is_thread_invariant() {
    let (catalog, query) = star_agg_query(&StarAggConfig {
        dimensions: 3,
        seed: 9,
    });
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
    let opts = ExecOptions { morsel_rows: 512 };
    let serial = execute_plan(
        &r.arena,
        r.best,
        &catalog,
        &query,
        &data,
        &ofw::common::SerialExecutor,
        &opts,
        &Trace::disabled(),
    )
    .unwrap();
    assert!(
        serial.1.morsels > 8,
        "expected a genuinely multi-morsel execution, got {} morsels",
        serial.1.morsels
    );
    assert_thread_invariant(
        &r.arena,
        r.best,
        &catalog,
        &query,
        &data,
        &serial,
        &opts,
        "morsel-scale star-agg",
    );

    // The reference arm at the same scale, and the differential answer.
    let (ref_arena, ref_root) = reference_plan(&query);
    let (ref_out, _) = execute_serial(&ref_arena, ref_root, &catalog, &query, &data).unwrap();
    assert_eq!(
        result_signature(&query, &serial.0),
        result_signature(&query, &ref_out),
        "morsel-scale star-agg: DP plan diverges from reference"
    );
}
