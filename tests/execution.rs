//! Physical validation: execute winning plans on synthetic data and
//! check that **every** logical ordering the O(1) framework claims for
//! the output actually holds on the physical tuple stream — the §2
//! stream-satisfaction condition, evaluated on real rows.
//!
//! This closes the loop the property tests leave open: `tests/props.rs`
//! proves the DFSM agrees with the formal derivation rules; this test
//! proves the derivation rules agree with reality.

use ofw::core::{LogicalProperty, OrderOracle, OrderingFramework, PruneConfig};
use ofw::exec::{execute_reference, execute_serial, reference_plan, result_signature, ColTable};
use ofw::plangen::{PlanArena, PlanGen, PlanId};
use ofw::query::extract::ExtractOptions;
use ofw::query::Query;
use ofw::workload::{
    grouping_query, q8_query, random_query, star_agg_query, synthetic_data, GroupingQueryConfig,
    RandomQueryConfig, StarAggConfig,
};

/// Runs the plan rooted at `plan` through the tuple-at-a-time reference
/// executor; a failure panics with the plan.
fn execute<S: Copy>(
    arena: &PlanArena<S>,
    plan: PlanId,
    catalog: &ofw::catalog::Catalog,
    query: &Query,
    data: &[Vec<Vec<i64>>],
) -> ColTable {
    execute_reference(arena, plan, catalog, query, data).unwrap_or_else(|e| panic!("{e}"))
}

/// `t`'s attribute columns: its leading ones, ahead of any weight or
/// accumulator column — what the reference executor returns.
fn attrs(t: &ColTable) -> ColTable {
    let n = t.attr_ids().len();
    ColTable::new(t.schema[..n].to_vec(), t.cols[..n].to_vec())
}

/// For the winning plan of each random query: every interesting order
/// satisfied by the root's DFSM state must hold physically.
#[test]
fn claimed_orderings_hold_physically_on_random_queries() {
    for n in [2usize, 3, 4, 5] {
        for extra in 0..=1usize {
            if n < 3 && extra > 0 {
                continue;
            }
            for seed in 0..6u64 {
                let (catalog, query) = random_query(&RandomQueryConfig {
                    num_relations: n,
                    extra_edges: extra,
                    seed,
                });
                let ex = ofw::query::extract(&catalog, &query, &ExtractOptions::default());
                let fw = OrderingFramework::prepare(&ex.spec, PruneConfig::default()).unwrap();
                let result = PlanGen::new(&catalog, &query, &ex, &fw).run();

                let data = synthetic_data(&catalog, &query, 8, 4, seed.wrapping_mul(31) + 7);
                let output = execute(&result.arena, result.best, &catalog, &query, &data);

                let root_state = result.arena.node(result.best).state;
                for (p, handle) in fw.properties() {
                    let LogicalProperty::Ordering(ordering) = &p else {
                        continue;
                    };
                    if fw.satisfies(root_state, handle) {
                        assert!(
                            output.satisfies_ordering(ordering.attrs()),
                            "n={n} extra={extra} seed={seed}: framework claims {:?} \
                             but the physical stream violates it\nplan:\n{}",
                            ordering,
                            result.arena.explain(result.best, &catalog, &query).text(),
                        );
                    }
                }
            }
        }
    }
}

/// Same check on every *intermediate* Pareto plan of a small query, not
/// just the winner — order states must be physically right everywhere
/// the DP relies on them.
#[test]
fn claimed_orderings_hold_for_intermediate_plans() {
    for seed in 0..8u64 {
        let (catalog, query) = random_query(&RandomQueryConfig {
            num_relations: 3,
            extra_edges: 0,
            seed,
        });
        let ex = ofw::query::extract(&catalog, &query, &ExtractOptions::default());
        let fw = OrderingFramework::prepare(&ex.spec, PruneConfig::default()).unwrap();
        let result = PlanGen::new(&catalog, &query, &ex, &fw).run();
        let data = synthetic_data(&catalog, &query, 6, 3, seed + 100);

        // Execute *every* allocated subplan (the arena holds them all).
        for id in 0..result.arena.len() as u32 {
            let pid = ofw::plangen::PlanId(id);
            let node = result.arena.node(pid);
            let output = execute(&result.arena, pid, &catalog, &query, &data);
            for (p, handle) in fw.properties() {
                let LogicalProperty::Ordering(ordering) = &p else {
                    continue;
                };
                // Only orderings over attributes the subplan covers.
                let covered = ordering
                    .attrs()
                    .iter()
                    .all(|&a| node.mask.contains(query.owner(a)));
                if covered && fw.satisfies(node.state, handle) {
                    assert!(
                        output.satisfies_ordering(ordering.attrs()),
                        "seed={seed} plan {pid:?}: claims {ordering:?} physically violated"
                    );
                }
            }
        }
    }
}

/// Grouping workloads: every ordering *and* every grouping the combined
/// framework claims for any subplan must hold on the physical tuple
/// stream — including through hash-group enforcers, grouping-preserving
/// joins and aggregates.
#[test]
fn claimed_groupings_hold_physically() {
    for n in [2usize, 3, 4] {
        for seed in 0..8u64 {
            let (catalog, query) = grouping_query(&GroupingQueryConfig {
                num_relations: n,
                extra_edges: 0,
                seed,
            });
            let ex = ofw::query::extract(&catalog, &query, &ExtractOptions::default());
            let fw = OrderingFramework::prepare(&ex.spec, PruneConfig::default()).unwrap();
            let result = PlanGen::new(&catalog, &query, &ex, &fw).run();
            let data = synthetic_data(&catalog, &query, 7, 3, seed.wrapping_mul(17) + 3);

            for id in 0..result.arena.len() as u32 {
                let pid = ofw::plangen::PlanId(id);
                let node = result.arena.node(pid);
                let output = execute(&result.arena, pid, &catalog, &query, &data);
                let covered = |attrs: &[ofw::catalog::AttrId]| {
                    attrs.iter().all(|&a| node.mask.contains(query.owner(a)))
                };
                for (p, handle) in fw.properties() {
                    if !covered(p.attrs()) || !fw.satisfies(node.state, handle) {
                        continue;
                    }
                    let holds = match &p {
                        LogicalProperty::Ordering(o) => output.satisfies_ordering(o.attrs()),
                        LogicalProperty::Grouping(g) => output.satisfies_grouping(g.attrs()),
                        LogicalProperty::HeadTail(h) => {
                            output.satisfies_head_tail(h.head_attrs(), h.tail_attrs())
                        }
                    };
                    assert!(
                        holds,
                        "n={n} seed={seed} plan {pid:?}: {p:?} violated\n{}",
                        result.arena.explain(pid, &catalog, &query).text(),
                    );
                }
            }
        }
    }
}

/// The tuple-at-a-time reference executor as a test oracle for the
/// vectorized engine: for every plan the DP allocated — winners and
/// intermediates, over ordering *and* grouping workloads, on chains and
/// on cyclic graphs (one or two extra edges) — both executors must
/// produce byte-identical attribute streams (same rows, same physical
/// order, including through the hash operators' deterministic
/// scramble). On a cyclic graph a join applies several edges (merge
/// residuals, multi-key hash joins, multi-edge nested loops), and
/// every plan runs as a root, so each root's copies of columns those
/// edges equate meet the oracle. Star aggregation queries (`n`
/// dimensions) add eager partial aggregates below joins, whose weights
/// and `sum` accumulators an aggregate above a join reads through the
/// join's pair list; there the winner's aggregate values must also equal
/// the reference plan's.
#[test]
fn vectorized_executor_matches_the_legacy_oracle_on_every_plan() {
    let (mut checked, mut multi_edge, mut star_winners) = (0usize, 0usize, 0usize);
    #[derive(Debug, PartialEq)]
    enum Shape {
        Random,
        Grouping,
        StarAgg,
    }
    use Shape::*;
    for (shape, n, extra, seeds) in [
        (Random, 3usize, 0usize, 0..8u64),
        (Grouping, 3, 0, 0..6u64),
        (Random, 4, 0, 0..4u64),
        (Random, 3, 1, 0..4u64),
        (Grouping, 4, 1, 0..3u64),
        (Random, 4, 2, 0..3u64),
        (Grouping, 4, 2, 0..3u64),
        (StarAgg, 2, 0, 0..6u64),
        (StarAgg, 3, 0, 0..4u64),
        (StarAgg, 4, 0, 0..2u64),
    ] {
        for seed in seeds {
            let (catalog, query) = match shape {
                Grouping => grouping_query(&GroupingQueryConfig {
                    num_relations: n,
                    extra_edges: extra,
                    seed,
                }),
                Random => random_query(&RandomQueryConfig {
                    num_relations: n,
                    extra_edges: extra,
                    seed,
                }),
                StarAgg => star_agg_query(&StarAggConfig {
                    dimensions: n,
                    seed,
                }),
            };
            let ex = ofw::query::extract(&catalog, &query, &ExtractOptions::default());
            let fw = OrderingFramework::prepare(&ex.spec, PruneConfig::default()).unwrap();
            let result = PlanGen::new(&catalog, &query, &ex, &fw).run();
            let data = synthetic_data(&catalog, &query, 7, 3, seed.wrapping_mul(29) + 13);
            let at = format!("{shape:?} n={n} extra={extra} seed={seed}");
            let graph = ofw::query::JoinGraph::new(&query);

            for id in 0..result.arena.len() as u32 {
                let pid = ofw::plangen::PlanId(id);
                let inputs: Vec<_> = result.arena.node(pid).op.inputs().collect();
                if let [l, r] = inputs[..] {
                    let (lmask, rmask) = (&result.arena.node(l).mask, &result.arena.node(r).mask);
                    multi_edge +=
                        usize::from(graph.connecting_edges(lmask, rmask).nth(1).is_some());
                }
                let reference = execute(&result.arena, pid, &catalog, &query, &data);
                let (vec_out, _) = execute_serial(&result.arena, pid, &catalog, &query, &data)
                    .unwrap_or_else(|e| panic!("{at}: vectorized failed: {e}"));
                assert_eq!(
                    attrs(&vec_out),
                    reference,
                    "{at} plan {pid:?}: vectorized row stream diverges from the reference executor\n{}",
                    result.arena.explain(pid, &catalog, &query).text(),
                );
                checked += 1;
            }
            if shape == StarAgg {
                let (ref_arena, ref_root) = reference_plan(&query);
                let (want, _) = execute_serial(&ref_arena, ref_root, &catalog, &query, &data)
                    .unwrap_or_else(|e| panic!("{at}: reference plan failed: {e}"));
                let (got, _) = execute_serial(&result.arena, result.best, &catalog, &query, &data)
                    .unwrap_or_else(|e| panic!("{at}: winner failed: {e}"));
                assert_eq!(
                    result_signature(&query, &got),
                    result_signature(&query, &want),
                    "{at}: the winner's aggregates diverge from the reference plan's"
                );
                star_winners += 1;
            }
        }
    }
    assert!(
        checked > 100,
        "expected a meaningful plan sample, got {checked}"
    );
    assert_eq!(star_winners, 12);
    assert!(
        multi_edge > 10,
        "expected joins that apply several edges, got {multi_edge}"
    );
}

/// Q8 end to end on synthetic rows: the output is physically grouped by
/// o_year.
#[test]
fn q8_output_is_physically_ordered() {
    let (catalog, query) = q8_query();
    let ex = ofw::query::extract(&catalog, &query, &ExtractOptions::default());
    let fw = OrderingFramework::prepare(&ex.spec, PruneConfig::default()).unwrap();
    let result = PlanGen::new(&catalog, &query, &ex, &fw).run();

    let data = synthetic_data(&catalog, &query, 6, 3, 42);
    let output = execute(&result.arena, result.best, &catalog, &query, &data);
    let o_year = catalog.attr("o_year");
    assert!(
        output.satisfies_ordering(&[o_year]),
        "Q8 output must come out ordered by o_year"
    );
}
