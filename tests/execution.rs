//! Physical validation: execute winning plans on synthetic data and
//! check that **every** logical ordering the O(1) framework claims for
//! the output actually holds on the physical tuple stream — the §2
//! stream-satisfaction condition, evaluated on real rows.
//!
//! This closes the loop the property tests leave open: `tests/props.rs`
//! proves the DFSM agrees with the formal derivation rules; this test
//! proves the derivation rules agree with reality.

use ofw::core::{OrderOracle, OrderingFramework, PruneConfig};
use ofw::exec::{columns_from_tables, execute_serial};
use ofw::plangen::{execute, synthetic_data, PlanGen};
use ofw::query::extract::ExtractOptions;
use ofw::workload::{
    grouping_query, q8_query, random_query, GroupingQueryConfig, RandomQueryConfig,
};

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
                for (ordering, handle) in fw.orders() {
                    if fw.satisfies(root_state, handle) {
                        assert!(
                            output.satisfies_ordering(ordering.attrs()),
                            "n={n} extra={extra} seed={seed}: framework claims {:?} \
                             but the physical stream violates it\nplan:\n{}",
                            ordering,
                            result.arena.render(result.best, &|q| catalog
                                .relation(query.relations[q])
                                .name
                                .clone()),
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
            for (ordering, handle) in fw.orders() {
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
                for (ordering, handle) in fw.orders() {
                    if covered(ordering.attrs()) && fw.satisfies(node.state, handle) {
                        assert!(
                            output.satisfies_ordering(ordering.attrs()),
                            "n={n} seed={seed} plan {pid:?}: ordering {ordering:?} violated"
                        );
                    }
                }
                for (grouping, handle) in fw.groupings() {
                    if covered(grouping.attrs()) && fw.satisfies(node.state, handle) {
                        assert!(
                            output.satisfies_grouping(grouping.attrs()),
                            "n={n} seed={seed} plan {pid:?}: grouping {grouping:?} violated\n{}",
                            result.arena.render(pid, &|q| catalog
                                .relation(query.relations[q])
                                .name
                                .clone()),
                        );
                    }
                }
                for (pair, handle) in fw.head_tails() {
                    if covered(pair.attrs()) && fw.satisfies(node.state, handle) {
                        assert!(
                            output.satisfies_head_tail(pair.head_attrs(), pair.tail_attrs()),
                            "n={n} seed={seed} plan {pid:?}: head/tail {pair:?} violated\n{}",
                            result.arena.render(pid, &|q| catalog
                                .relation(query.relations[q])
                                .name
                                .clone()),
                        );
                    }
                }
            }
        }
    }
}

/// The legacy tuple-at-a-time executor as a test oracle for the
/// vectorized engine: for every plan the DP allocated — winners and
/// intermediates, over ordering *and* grouping workloads — both
/// executors must produce byte-identical attribute streams (same rows,
/// same physical order, including through the hash operators'
/// deterministic scramble).
#[test]
fn vectorized_executor_matches_the_legacy_oracle_on_every_plan() {
    let mut checked = 0usize;
    for (grouping, n, seeds) in [
        (false, 3usize, 0..8u64),
        (true, 3, 0..6u64),
        (false, 4, 0..4u64),
    ] {
        for seed in seeds {
            let (catalog, query) = if grouping {
                grouping_query(&GroupingQueryConfig {
                    num_relations: n,
                    extra_edges: 0,
                    seed,
                })
            } else {
                random_query(&RandomQueryConfig {
                    num_relations: n,
                    extra_edges: 0,
                    seed,
                })
            };
            let ex = ofw::query::extract(&catalog, &query, &ExtractOptions::default());
            let fw = OrderingFramework::prepare(&ex.spec, PruneConfig::default()).unwrap();
            let result = PlanGen::new(&catalog, &query, &ex, &fw).run();
            let data = synthetic_data(&catalog, &query, 7, 3, seed.wrapping_mul(29) + 13);
            let cols = columns_from_tables(&data);

            for id in 0..result.arena.len() as u32 {
                let pid = ofw::plangen::PlanId(id);
                let legacy = execute(&result.arena, pid, &catalog, &query, &data);
                let (vec_out, _) = execute_serial(&result.arena, pid, &catalog, &query, &cols)
                    .unwrap_or_else(|e| {
                        panic!("grouping={grouping} n={n} seed={seed}: vectorized failed: {e}")
                    });
                let vec_table = vec_out.attr_table();
                assert_eq!(
                    vec_table.attrs, legacy.attrs,
                    "grouping={grouping} n={n} seed={seed} plan {pid:?}: schema diverges"
                );
                assert_eq!(
                    vec_table.rows,
                    legacy.rows,
                    "grouping={grouping} n={n} seed={seed} plan {pid:?}: \
                     vectorized row stream diverges from the legacy oracle\n{}",
                    result
                        .arena
                        .render(pid, &|q| catalog.relation(query.relations[q]).name.clone()),
                );
                checked += 1;
            }
        }
    }
    assert!(
        checked > 100,
        "expected a meaningful plan sample, got {checked}"
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
