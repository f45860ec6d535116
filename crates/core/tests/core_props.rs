//! Property-based tests on the core derivation machinery, complementary
//! to the cross-crate equivalence suite in the workspace `tests/props.rs`:
//! these target individual invariants of orderings, derivations and the
//! preparation pipeline.

use ofw_catalog::AttrId;
use ofw_core::derive::DeriveCtx;
use ofw_core::eqclass::EqClasses;
use ofw_core::fd::Fd;
use ofw_core::filter::PrefixFilter;
use ofw_core::ordering::Ordering;
use ofw_core::property::{Grouping, LogicalProperty};
use ofw_core::{ExplicitOrderings, FdSet, InputSpec, OrderingFramework, PruneConfig};
use proptest::prelude::*;

const NUM_ATTRS: u32 = 5;

fn arb_attr() -> impl Strategy<Value = AttrId> {
    (0..NUM_ATTRS).prop_map(AttrId)
}

fn arb_ordering() -> impl Strategy<Value = Ordering> {
    proptest::collection::vec(arb_attr(), 1..=4).prop_filter_map("dups", |attrs| {
        let mut seen = std::collections::HashSet::new();
        attrs
            .iter()
            .all(|a| seen.insert(*a))
            .then(|| Ordering::new(attrs))
    })
}

fn arb_grouping() -> impl Strategy<Value = Grouping> {
    proptest::collection::vec(arb_attr(), 1..=4).prop_map(Grouping::new)
}

fn arb_fd() -> impl Strategy<Value = Fd> {
    prop_oneof![
        (arb_attr(), arb_attr())
            .prop_filter_map("trivial", |(a, b)| (a != b).then(|| Fd::equation(a, b))),
        (proptest::collection::vec(arb_attr(), 1..=2), arb_attr())
            .prop_filter_map("trivial", |(lhs, rhs)| (!lhs.contains(&rhs))
                .then(|| Fd::functional(&lhs, rhs))),
        arb_attr().prop_map(Fd::constant),
    ]
}

fn arb_fds() -> impl Strategy<Value = Vec<Fd>> {
    proptest::collection::vec(arb_fd(), 1..=4)
}

/// Unbounded derivation context (the semantic ground configuration).
fn unbounded_closure(o: &Ordering, fds: &[Fd]) -> Vec<Ordering> {
    let eq = EqClasses::from_fds(fds.iter());
    let filter = PrefixFilter::new(std::iter::empty(), &[], &eq, false);
    let ctx = DeriveCtx {
        eq: &eq,
        filter: &filter,
        max_len: usize::MAX,
    };
    ctx.closure(o, fds)
}

proptest! {
    /// Every derived ordering is duplicate-free and within the attribute
    /// universe — the core well-formedness invariant.
    #[test]
    fn derivations_are_well_formed(o in arb_ordering(), fds in arb_fds()) {
        for d in unbounded_closure(&o, &fds) {
            let mut seen = std::collections::HashSet::new();
            for &a in d.attrs() {
                prop_assert!(seen.insert(a), "duplicate in {:?}", d);
                prop_assert!(a.0 < NUM_ATTRS);
            }
            prop_assert!(!d.is_prefix_of(&o), "{:?} is implied by ε already", d);
        }
    }

    /// Derivation is monotone in the dependency set: more dependencies
    /// never derive fewer orderings.
    #[test]
    fn closure_is_monotone_in_fds(o in arb_ordering(), fds in arb_fds()) {
        let all = unbounded_closure(&o, &fds);
        let fewer = unbounded_closure(&o, &fds[..fds.len() - 1]);
        for d in fewer {
            prop_assert!(all.contains(&d), "lost {:?} when adding an FD", d);
        }
    }

    /// The bounded (filtered) closure never *invents* orderings: it is a
    /// subset of the unbounded closure up to truncation (every filtered
    /// result is a prefix of some unbounded result or of the source).
    #[test]
    fn filtered_closure_is_sound(
        o in arb_ordering(),
        interesting in proptest::collection::vec(arb_ordering(), 1..=3),
        fds in arb_fds(),
    ) {
        let eq = EqClasses::from_fds(fds.iter());
        let filter = PrefixFilter::new(interesting.iter(), &fds, &eq, true);
        let ctx = DeriveCtx { eq: &eq, filter: &filter, max_len: usize::MAX };
        let bounded = ctx.closure(&o, &fds);
        let unbounded = unbounded_closure(&o, &fds);
        for d in bounded {
            let justified = d.is_prefix_of(&o)
                || unbounded.iter().any(|u| d.is_prefix_of(u))
                || unbounded.contains(&d);
            prop_assert!(justified, "filtered closure invented {:?}", d);
        }
    }

    /// Preparation always succeeds within default caps on small inputs,
    /// and the ADT's basic laws hold: produce→satisfies, inference
    /// monotone (never loses a satisfied order), infer idempotent per
    /// symbol after reaching a fixpoint.
    #[test]
    fn adt_laws(
        produced in proptest::collection::vec(arb_ordering(), 1..=3),
        fd_sets in proptest::collection::vec(proptest::collection::vec(arb_fd(), 1..=2), 1..=3),
    ) {
        let mut spec = InputSpec::new();
        for o in &produced {
            spec.add_produced(o.clone());
        }
        let ids: Vec<_> = fd_sets.iter().map(|f| spec.add_fd_set(f.clone())).collect();
        let fw = OrderingFramework::prepare(&spec, PruneConfig::default()).unwrap();

        for o in &produced {
            let h = fw.handle(o).expect("produced orders are interesting");
            let mut s = fw.produce(h);
            prop_assert!(fw.satisfies(s, h), "produce({:?}) must satisfy it", o);
            // Prefixes are satisfied too.
            for p in o.proper_prefixes() {
                let hp = fw.handle(&p).expect("prefixes are interesting");
                prop_assert!(fw.satisfies(s, hp));
            }
            // Monotonicity: applying operators never loses orders.
            let mut satisfied: Vec<_> =
                fw.orders().filter(|&(_, k)| fw.satisfies(s, k)).map(|(_, k)| k).collect();
            for &f in &ids {
                s = fw.infer(s, f);
                for &k in &satisfied {
                    prop_assert!(fw.satisfies(s, k), "inference lost an order");
                }
                satisfied =
                    fw.orders().filter(|&(_, k)| fw.satisfies(s, k)).map(|(_, k)| k).collect();
            }
            // Re-applying the full symbol sequence converges (monotone
            // over a finite state space — chained dependencies may need
            // several rounds, e.g. const a3, a3=a4, a0=a4, a0→a1).
            let mut t = s;
            let mut rounds = 0;
            loop {
                let before = t;
                for &f in &ids {
                    t = fw.infer(t, f);
                }
                rounds += 1;
                if t == before {
                    break;
                }
                prop_assert!(rounds < 64, "no fixpoint after 64 rounds");
            }
        }
    }

    /// The combined framework's grouping answers agree with the
    /// explicit-set ground truth: for random specs mixing produced
    /// orderings and produced/tested groupings, every DFSM
    /// `satisfies`/`satisfies_grouping` probe after every `infer`
    /// sequence matches the oracle — from sorted *and* from
    /// hash-grouped start states.
    #[test]
    fn grouping_dfsm_matches_explicit_oracle(
        produced_orderings in proptest::collection::vec(arb_ordering(), 1..=2),
        produced_groupings in proptest::collection::vec(arb_grouping(), 1..=2),
        tested_groupings in proptest::collection::vec(arb_grouping(), 0..=2),
        fd_sets in proptest::collection::vec(proptest::collection::vec(arb_fd(), 1..=2), 1..=3),
        ops in proptest::collection::vec(0usize..3, 0..=4),
    ) {
        let mut spec = InputSpec::new();
        for o in &produced_orderings {
            spec.add_produced(o.clone());
        }
        for g in &produced_groupings {
            spec.add_produced(g.clone());
        }
        for g in &tested_groupings {
            spec.add_tested(g.clone());
        }
        let set_ids: Vec<_> = fd_sets.iter().map(|f| spec.add_fd_set(f.clone())).collect();
        let fw = OrderingFramework::prepare(&spec, PruneConfig::default()).unwrap();

        // Start states: one per produced property, of either kind.
        let starts: Vec<(LogicalProperty, ofw_core::State, ExplicitOrderings)> = spec
            .produced()
            .iter()
            .map(|p| {
                let h = fw.handle_property(p).expect("produced properties are interesting");
                let truth = match p {
                    LogicalProperty::Ordering(o) => ExplicitOrderings::from_physical(o),
                    LogicalProperty::Grouping(g) => ExplicitOrderings::from_grouping(g),
                    LogicalProperty::HeadTail(h) => ExplicitOrderings::from_head_tail(h),
                };
                (p.clone(), fw.produce(h), truth)
            })
            .collect();

        for (start, mut state, mut truth) in starts {
            for &op in &ops {
                if op >= set_ids.len() {
                    continue;
                }
                state = fw.infer(state, set_ids[op]);
                truth.infer(&FdSet::new(fd_sets[op].clone()));
            }
            // Every interesting property — orderings and groupings —
            // must agree between the O(1) DFSM path and the oracle.
            for (prop, handle) in fw.properties() {
                let got = match prop {
                    LogicalProperty::Ordering(_) => fw.satisfies(state, handle),
                    LogicalProperty::Grouping(_) => fw.satisfies_grouping(state, handle),
                    LogicalProperty::HeadTail(_) => fw.satisfies_head_tail(state, handle),
                };
                let want = match prop {
                    LogicalProperty::Ordering(o) => truth.contains(o),
                    LogicalProperty::Grouping(g) => truth.contains_grouping(g),
                    LogicalProperty::HeadTail(h) => truth.contains_head_tail(h),
                };
                prop_assert_eq!(
                    got, want,
                    "property {:?} from start {:?} after ops {:?}", prop, start, ops
                );
            }
        }
    }

    /// The domination matrix is a partial order consistent with
    /// `satisfies`: if A dominates B, A satisfies everything B does.
    #[test]
    fn domination_implies_satisfaction(
        produced in proptest::collection::vec(arb_ordering(), 2..=3),
        fd_sets in proptest::collection::vec(proptest::collection::vec(arb_fd(), 1..=2), 1..=2),
    ) {
        let mut spec = InputSpec::new();
        for o in &produced {
            spec.add_produced(o.clone());
        }
        let ids: Vec<_> = fd_sets.iter().map(|f| spec.add_fd_set(f.clone())).collect();
        let fw = OrderingFramework::prepare(&spec, PruneConfig::default()).unwrap();

        // Collect a handful of reachable states.
        let mut states = vec![fw.produce_empty()];
        for o in &produced {
            let mut s = fw.produce(fw.handle(o).unwrap());
            states.push(s);
            for &f in &ids {
                s = fw.infer(s, f);
                states.push(s);
            }
        }
        for &a in &states {
            for &b in &states {
                if fw.dominates(a, b) {
                    for (_, k) in fw.orders() {
                        if fw.satisfies(b, k) {
                            prop_assert!(
                                fw.satisfies(a, k),
                                "{:?} dominates {:?} but misses an order", a, b
                            );
                        }
                    }
                }
            }
        }
    }
}
