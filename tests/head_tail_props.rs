//! Head/tail pair properties: the third `LogicalProperty` kind must
//! answer `satisfies` exactly like the explicit-set ground
//! truth on realistic inputs, and it must be *pay-for-what-you-use* —
//! queries that never register an interesting pair build byte-identical
//! automata to the ordering + grouping pipeline.

use ofw::core::{ExplicitOrderings, LogicalProperty};
use ofw::core::{Fd, FdSet, OrderOracle, OrderingFramework, PruneConfig};
use ofw::query::extract::ExtractOptions;
use ofw::workload::{grouping_query, random_query, GroupingQueryConfig, RandomQueryConfig};
use proptest::prelude::*;

/// Queries without both a `group by` and an `order by` never register a
/// pair, so their extracted spec — and with it the prepared automaton —
/// is exactly the ordering + grouping pipeline's, untouched.
#[test]
fn pure_queries_build_byte_identical_automata() {
    let options = ExtractOptions::default();
    let mut checked_pure = 0usize;
    let mut checked_pairful = 0usize;
    // Pure ordering workloads (no group-by at all).
    for seed in 0..10u64 {
        let (catalog, query) = random_query(&RandomQueryConfig {
            num_relations: 4,
            extra_edges: 1,
            seed,
        });
        let ex = ofw::query::extract(&catalog, &query, &options);
        assert!(
            !ex.spec.interesting().any(LogicalProperty::is_head_tail),
            "seed {seed}: pure ordering query must register no pair"
        );
        checked_pure += 1;
    }
    // Grouping workloads: only those that also order register pairs; a
    // bare group-by registers none.
    for seed in 0..20u64 {
        let (catalog, query) = grouping_query(&GroupingQueryConfig {
            num_relations: 4,
            extra_edges: 0,
            seed,
        });
        let ex = ofw::query::extract(&catalog, &query, &options);
        if query.order_by.is_empty() {
            assert!(
                !ex.spec.interesting().any(LogicalProperty::is_head_tail),
                "seed {seed}: pure grouping query must register no pair"
            );
            checked_pure += 1;
        } else if query.order_by.len() >= 2 {
            // Multi-attribute order-by over a group-by: decompositions
            // exist, so pairs must actually have been registered.
            assert!(
                ex.spec.interesting().any(LogicalProperty::is_head_tail),
                "seed {seed}: GROUP BY … ORDER BY must register pairs"
            );
            checked_pairful += 1;
        }
    }
    assert!(checked_pure >= 10, "the pure guard needs pure samples");
    assert!(checked_pairful >= 1, "want at least one pair-ful sample");
}

/// For random grouping workloads (the specs real queries extract),
/// every head/tail `satisfies` probe after every operator sequence must
/// agree with the explicit-set ground truth — from sorted and from
/// hash-grouped start states.
mod workload_agreement {
    use super::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn head_tail_satisfaction_matches_explicit_oracle(
            seed in 0..40u64,
            ops in proptest::collection::vec(0usize..4, 0..=4),
        ) {
            let (catalog, query) = grouping_query(&GroupingQueryConfig {
                num_relations: 3,
                extra_edges: 0,
                seed,
            });
            let ex = ofw::query::extract(&catalog, &query, &ExtractOptions::default());
            let _ = catalog;
            if ex.spec.interesting().any(LogicalProperty::is_head_tail) {
                let fw = OrderingFramework::prepare(&ex.spec, PruneConfig::default()).unwrap();
                let fd_sets: Vec<FdSet> = ex.spec.fd_sets().to_vec();
                for p in ex.spec.produced() {
                    let handle = fw.resolve(p).expect("produced is interesting");
                    let mut state = fw.produce(handle);
                    let mut truth = match p {
                        LogicalProperty::Ordering(o) => ExplicitOrderings::from_physical(o),
                        LogicalProperty::Grouping(g) => ExplicitOrderings::from_grouping(g),
                        LogicalProperty::HeadTail(h) => ExplicitOrderings::from_head_tail(h),
                    };
                    for &op in &ops {
                        if op >= fd_sets.len() {
                            continue;
                        }
                        state = fw.infer(state, ofw::core::FdSetId(op as u32));
                        truth.infer(&fd_sets[op]);
                    }
                    for (p, ph) in fw.properties() {
                        let LogicalProperty::HeadTail(pair) = &p else {
                            continue;
                        };
                        prop_assert_eq!(
                            fw.satisfies(state, ph),
                            truth.contains_head_tail(pair),
                            "seed {} pair {:?} from {:?} after {:?}",
                            seed, pair, p, &ops
                        );
                    }
                    // The established kinds must agree too — pairs may
                    // not perturb ordering or grouping answers.
                    for (p, oh) in fw.properties() {
                        let LogicalProperty::Ordering(o) = &p else {
                            continue;
                        };
                        prop_assert_eq!(fw.satisfies(state, oh), truth.contains(o));
                    }
                    for (p, gh) in fw.properties() {
                        let LogicalProperty::Grouping(g) = &p else {
                            continue;
                        };
                        prop_assert_eq!(
                            fw.satisfies(state, gh),
                            truth.contains_grouping(g)
                        );
                    }
                }
            }
        }
    }
}

/// Hand-rolled pair specs with adversarial FD mixes: agreement holds
/// from pair-shaped start states too (what a partial-sort output is).
mod spec_agreement {
    use super::*;
    use ofw::catalog::AttrId;
    use ofw::core::{Grouping, HeadTail, InputSpec, Ordering};

    fn arb_attr() -> impl Strategy<Value = AttrId> {
        (0..4u32).prop_map(AttrId)
    }

    fn arb_head() -> impl Strategy<Value = Grouping> {
        proptest::collection::vec(arb_attr(), 1..=2).prop_map(Grouping::new)
    }

    fn arb_fd() -> impl Strategy<Value = Fd> {
        prop_oneof![
            (arb_attr(), arb_attr()).prop_filter_map("trivial", |(a, b)| (a != b)
                .then(|| Fd::functional(&[a], b))),
            (arb_attr(), arb_attr())
                .prop_filter_map("trivial", |(a, b)| (a != b).then(|| Fd::equation(a, b))),
            arb_attr().prop_map(Fd::constant),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        #[test]
        fn head_tail_satisfaction_matches_explicit_oracle(
            heads in proptest::collection::vec(arb_head(), 1..=2),
            fds in proptest::collection::vec(arb_fd(), 1..=3),
            ops in proptest::collection::vec(0usize..3, 0..=3),
        ) {
            let attrs: Vec<AttrId> = (0..4).map(AttrId).collect();
            let mut spec = InputSpec::new();
            // Produced: one ordering over everything, one grouping per
            // sampled head; tested: pairs (head, continuation).
            spec.add_produced(Ordering::new(attrs.clone()));
            for head in &heads {
                spec.add_produced(head.clone());
                let tail: Vec<AttrId> = attrs
                    .iter()
                    .copied()
                    .filter(|a| !head.contains_attr(*a))
                    .take(2)
                    .collect();
                if !tail.is_empty() {
                    spec.add_tested(HeadTail::new(head.clone(), Ordering::new(tail)));
                }
            }
            let set_ids: Vec<_> = fds
                .iter()
                .map(|fd| spec.add_fd_set(vec![fd.clone()]))
                .collect();
            if spec.interesting().any(LogicalProperty::is_head_tail) {
                let fw = OrderingFramework::prepare(&spec, PruneConfig::default()).unwrap();
                for p in spec.produced() {
                    let handle = fw.resolve(p).expect("produced is interesting");
                    let mut state = fw.produce(handle);
                    let mut truth = match p {
                        LogicalProperty::Ordering(o) => ExplicitOrderings::from_physical(o),
                        LogicalProperty::Grouping(g) => ExplicitOrderings::from_grouping(g),
                        LogicalProperty::HeadTail(h) => ExplicitOrderings::from_head_tail(h),
                    };
                    for &op in &ops {
                        if op >= set_ids.len() {
                            continue;
                        }
                        state = fw.infer(state, set_ids[op]);
                        truth.infer(&FdSet::new(vec![fds[op].clone()]));
                    }
                    for (p, ph) in fw.properties() {
                        let LogicalProperty::HeadTail(pair) = &p else {
                            continue;
                        };
                        prop_assert_eq!(
                            fw.satisfies(state, ph),
                            truth.contains_head_tail(pair),
                            "pair {:?} from {:?} after {:?} under {:?}",
                            pair, p, &ops, &fds
                        );
                    }
                }
            }
        }
    }
}
