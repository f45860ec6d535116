//! End-to-end integration: query → extraction → both order frameworks →
//! DP plan generation, across workload families.

use ofw::catalog::Catalog;
use ofw::core::{OrderOracle, OrderingFramework, PruneConfig};
use ofw::plangen::{ExplicitOracle, PlanGen, PlanOp};
use ofw::query::extract::ExtractOptions;
use ofw::query::Query;
use ofw::simmen::SimmenFramework;
use ofw::workload::{
    grouping_query, q8_query, random_query, GroupingQueryConfig, RandomQueryConfig,
};

/// Plans `query` under the DFSM framework and the Simmen baseline and
/// asserts equal optima with the DFSM side pruning at least as hard;
/// with `check_explicit`, the naive explicit-set oracle must reach the
/// same optimum too (exponential — small queries only).
fn assert_arms_agree(case: &str, catalog: &Catalog, query: &Query, check_explicit: bool) {
    let ex = ofw::query::extract(catalog, query, &ExtractOptions::default());

    let ours_fw = OrderingFramework::prepare(&ex.spec, PruneConfig::default()).unwrap();
    let ours = PlanGen::new(catalog, query, &ex, &ours_fw).run();

    let simmen_fw = SimmenFramework::prepare(&ex.spec);
    let simmen = PlanGen::new(catalog, query, &ex, &simmen_fw).run();

    let rel = (ours.cost - simmen.cost).abs() / ours.cost.max(1.0);
    assert!(
        rel < 1e-9,
        "{case}: ours={} simmen={}",
        ours.cost,
        simmen.cost
    );
    assert!(
        ours.stats.plans <= simmen.stats.plans,
        "{case}: the DFSM framework must prune at least as hard ({} vs {})",
        ours.stats.plans,
        simmen.stats.plans
    );
    if check_explicit {
        let explicit_fw = ExplicitOracle::prepare(&ex.spec);
        let explicit = PlanGen::new(catalog, query, &ex, &explicit_fw).run();
        let rel = (ours.cost - explicit.cost).abs() / ours.cost.max(1.0);
        assert!(
            rel < 1e-9,
            "{case}: ours={} explicit={}",
            ours.cost,
            explicit.cost
        );
    }
}

/// §7's setup invariant: both order frameworks, run through the same
/// plan generator, find equally cheap plans — checked across a spread of
/// random join graphs, and across grouping queries small enough to ask
/// the explicit-set oracle as well.
#[test]
fn both_frameworks_agree_on_optimal_cost_across_seeds() {
    for n in [3usize, 5, 7] {
        for extra in 0..=2usize {
            for seed in 0..4u64 {
                let (catalog, query) = random_query(&RandomQueryConfig {
                    num_relations: n,
                    extra_edges: extra,
                    seed,
                });
                let case = format!("random n={n} extra={extra} seed={seed}");
                assert_arms_agree(&case, &catalog, &query, false);
            }
        }
    }
    for n in [4usize, 5] {
        for extra in 0..=1usize {
            for seed in 2000..2002u64 {
                let (catalog, query) = grouping_query(&GroupingQueryConfig {
                    num_relations: n,
                    extra_edges: extra,
                    seed,
                });
                let case = format!("grouping n={n} extra={extra} seed={seed}");
                assert_arms_agree(&case, &catalog, &query, true);
            }
        }
    }
}

/// Unpruned and pruned DFSM frameworks drive the plan generator to the
/// same optimum (pruning only removes irrelevant information).
#[test]
fn pruning_does_not_change_the_optimal_plan() {
    for seed in 0..5u64 {
        let (catalog, query) = random_query(&RandomQueryConfig {
            num_relations: 6,
            extra_edges: 1,
            seed,
        });
        let ex = ofw::query::extract(&catalog, &query, &ExtractOptions::default());
        let pruned = OrderingFramework::prepare(&ex.spec, PruneConfig::default()).unwrap();
        let raw = OrderingFramework::prepare(&ex.spec, PruneConfig::none()).unwrap();
        let a = PlanGen::new(&catalog, &query, &ex, &pruned).run();
        let b = PlanGen::new(&catalog, &query, &ex, &raw).run();
        assert!(
            (a.cost - b.cost).abs() / a.cost.max(1.0) < 1e-9,
            "seed {seed}: {} vs {}",
            a.cost,
            b.cost
        );
    }
}

/// The query front door keeps the first occurrence of a repeated key:
/// `ORDER BY a, b, a` used to trip `Ordering::new`'s duplicate-free
/// assertion in the dev profile (and build an ordering that breaks the
/// invariant every derivation rule assumes in release). It must plan to
/// the same cost and the same winner as `ORDER BY a, b`.
#[test]
fn repeated_order_by_keys_plan_like_their_first_occurrences() {
    let mut catalog = Catalog::new();
    catalog.add_relation("r", 10_000.0, &["a", "b", "k"]);
    catalog.add_relation("s", 1_000.0, &["k", "c"]);
    let plan = |order_by: &[&str]| {
        let query = ofw::query::QueryBuilder::new(&catalog)
            .relation("r")
            .relation("s")
            .join("r.k", "s.k", 0.001)
            .order_by(order_by)
            .build();
        let ex = ofw::query::extract(&catalog, &query, &ExtractOptions::default());
        let fw = OrderingFramework::prepare(&ex.spec, PruneConfig::default()).unwrap();
        let r = PlanGen::new(&catalog, &query, &ex, &fw).run();
        (
            r.cost.to_bits(),
            r.explain(&catalog, &query, &ex, &fw).text(),
        )
    };
    assert_eq!(plan(&["r.a", "r.b", "r.a"]), plan(&["r.a", "r.b"]));
    assert_eq!(plan(&["s.c", "s.c"]), plan(&["s.c"]));
}

/// Q8 end to end: valid complete plan covering all eight relations, the
/// final operator chain honors the group-by/order-by requirement, and
/// the DFSM framework uses far less memory.
#[test]
fn q8_end_to_end() {
    let (catalog, query) = q8_query();
    let ex = ofw::query::extract(&catalog, &query, &ExtractOptions::default());
    let fw = OrderingFramework::prepare(&ex.spec, PruneConfig::default()).unwrap();
    let result = PlanGen::new(&catalog, &query, &ex, &fw).run();

    let root = result.arena.node(result.best);
    assert_eq!(
        root.mask,
        query.all_relations_set(),
        "covers all 8 relations"
    );
    assert!(result.cost.is_finite() && result.cost > 0.0);

    // The root's order state must satisfy (o_year).
    let o_year = catalog.attr("o_year");
    let h = fw
        .resolve(&ofw::core::Ordering::new(vec![o_year]).into())
        .expect("(o_year) is interesting");
    assert!(fw.satisfies(root.state, h), "output is grouped by o_year");

    // The plan tree is well-formed: 8 leaves, 7 joins, possibly sorts.
    let mut leaves = 0;
    let mut joins = 0;
    let mut stack = vec![result.best];
    while let Some(p) = stack.pop() {
        let op = &result.arena.node(p).op;
        match op {
            PlanOp::Scan { .. } | PlanOp::IndexScan { .. } => leaves += 1,
            PlanOp::MergeJoin { .. } | PlanOp::HashJoin { .. } | PlanOp::NestedLoopJoin { .. } => {
                joins += 1
            }
            _ => {}
        }
        stack.extend(op.inputs());
    }
    assert_eq!(leaves, 8);
    assert_eq!(joins, 7);

    let simmen_fw = SimmenFramework::prepare(&ex.spec);
    let simmen = PlanGen::new(&catalog, &query, &ex, &simmen_fw).run();
    assert!(
        result.stats.memory_bytes * 2 < simmen.stats.memory_bytes,
        "DFSM memory {} should be well under half of Simmen's {}",
        result.stats.memory_bytes,
        simmen.stats.memory_bytes
    );
}

/// The prepared framework for a query is reusable across plan-generation
/// runs (the preparation step is per query, not per plan).
#[test]
fn framework_is_reusable() {
    let (catalog, query) = q8_query();
    let ex = ofw::query::extract(&catalog, &query, &ExtractOptions::default());
    let fw = OrderingFramework::prepare(&ex.spec, PruneConfig::default()).unwrap();
    let a = PlanGen::new(&catalog, &query, &ex, &fw).run();
    let b = PlanGen::new(&catalog, &query, &ex, &fw).run();
    assert_eq!(a.cost, b.cost);
    assert_eq!(a.stats.plans, b.stats.plans);
}
