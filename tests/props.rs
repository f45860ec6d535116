//! Property-based tests on the core invariants.
//!
//! The crown jewel: for *random* specs (interesting orders + FD sets)
//! and *random* operator sequences, the O(1) DFSM framework must answer
//! `contains` exactly like the naive explicit-set implementation of §2
//! (which applies the derivation rules directly, with no FSM, no
//! determinization and no §5.7 heuristics). This exercises the whole
//! pipeline — derivation, pruning, powerset construction, precomputed
//! tables — against an independently implemented semantics.

use ofw::catalog::AttrId;
use ofw::core::{
    ExplicitOrderings, Fd, FdSet, InputSpec, OrderOracle, Ordering, OrderingFramework, PruneConfig,
};
use proptest::prelude::*;

const NUM_ATTRS: u32 = 5;

fn arb_attr() -> impl Strategy<Value = AttrId> {
    (0..NUM_ATTRS).prop_map(AttrId)
}

/// A duplicate-free ordering of length 1..=3.
fn arb_ordering() -> impl Strategy<Value = Ordering> {
    proptest::collection::vec(arb_attr(), 1..=3).prop_filter_map("duplicate attrs", |attrs| {
        let mut seen = std::collections::HashSet::new();
        if attrs.iter().all(|a| seen.insert(*a)) {
            Some(Ordering::new(attrs))
        } else {
            None
        }
    })
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

#[derive(Debug, Clone)]
struct Scenario {
    produced: Vec<Ordering>,
    tested: Vec<Ordering>,
    fd_sets: Vec<Vec<Fd>>,
    /// Start order (index into produced) and FD-set application sequence.
    start: usize,
    ops: Vec<usize>,
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (
        proptest::collection::vec(arb_ordering(), 1..=3),
        proptest::collection::vec(arb_ordering(), 0..=2),
        proptest::collection::vec(proptest::collection::vec(arb_fd(), 1..=2), 1..=3),
    )
        .prop_flat_map(|(produced, tested, fd_sets)| {
            let np = produced.len();
            let nf = fd_sets.len();
            (
                Just(produced),
                Just(tested),
                Just(fd_sets),
                0..np,
                proptest::collection::vec(0..nf, 0..=4),
            )
                .prop_map(|(produced, tested, fd_sets, start, ops)| Scenario {
                    produced,
                    tested,
                    fd_sets,
                    start,
                    ops,
                })
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The DFSM framework agrees with the explicit-set ground truth on
    /// every interesting order, after every operator sequence.
    #[test]
    fn dfsm_matches_explicit_oracle(sc in arb_scenario()) {
        let mut spec = InputSpec::new();
        for o in &sc.produced {
            spec.add_produced(o.clone());
        }
        for o in &sc.tested {
            spec.add_tested(o.clone());
        }
        let set_ids: Vec<_> = sc.fd_sets.iter().map(|fds| spec.add_fd_set(fds.clone())).collect();

        let fw = OrderingFramework::prepare(&spec, PruneConfig::default()).unwrap();

        // Walk both representations in lockstep.
        let start = &sc.produced[sc.start];
        let mut state = fw.produce(fw.resolve(&start.clone().into()).expect("produced orders are interesting"));
        let mut truth = ExplicitOrderings::from_physical(start);
        for &op in &sc.ops {
            state = fw.infer(state, set_ids[op]);
            truth.infer(&FdSet::new(sc.fd_sets[op].clone()));
        }

        // Every interesting order (including prefixes) must agree.
        for (ordering, handle) in fw.orders() {
            let got = fw.satisfies(state, handle);
            let want = truth.contains(ordering);
            prop_assert_eq!(
                got, want,
                "order {:?} after start {:?} ops {:?}", ordering, start, sc.ops
            );
        }
    }

    /// Pruning is behaviour-preserving: the fully pruned DFSM and the
    /// completely un-pruned one answer identically.
    #[test]
    fn pruning_preserves_behaviour(sc in arb_scenario()) {
        let mut spec = InputSpec::new();
        for o in &sc.produced {
            spec.add_produced(o.clone());
        }
        for o in &sc.tested {
            spec.add_tested(o.clone());
        }
        let set_ids: Vec<_> = sc.fd_sets.iter().map(|fds| spec.add_fd_set(fds.clone())).collect();

        let pruned = OrderingFramework::prepare(&spec, PruneConfig::default()).unwrap();
        let raw = OrderingFramework::prepare(&spec, PruneConfig::none()).unwrap();

        let start = sc.produced[sc.start].clone().into();
        let mut sp = pruned.produce(pruned.resolve(&start).unwrap());
        let mut sr = raw.produce(raw.resolve(&start).unwrap());
        for &op in &sc.ops {
            sp = pruned.infer(sp, set_ids[op]);
            sr = raw.infer(sr, set_ids[op]);
        }
        for (ordering, hp) in pruned.orders() {
            let hr = raw.resolve(&ordering.clone().into()).unwrap();
            prop_assert_eq!(
                pruned.satisfies(sp, hp),
                raw.satisfies(sr, hr),
                "order {:?}", ordering
            );
        }
    }

    /// Simmen's framework is *sound* (never claims an ordering that does
    /// not hold for the stream) — completeness can fail by design
    /// (non-confluent reduction, §3). Soundness is judged against the
    /// persistent-FD ground truth (all applied dependencies keep
    /// holding), which is what Simmen's per-node FD environment models —
    /// it can legitimately exceed the paper's sequential Ω semantics,
    /// e.g. `a=b` followed by `b=const` makes `a` constant.
    #[test]
    fn simmen_is_sound(sc in arb_scenario()) {
        let mut spec = InputSpec::new();
        for o in &sc.produced {
            spec.add_produced(o.clone());
        }
        for o in &sc.tested {
            spec.add_tested(o.clone());
        }
        let set_ids: Vec<_> = sc.fd_sets.iter().map(|fds| spec.add_fd_set(fds.clone())).collect();
        let fw = ofw::simmen::SimmenFramework::prepare(&spec);

        let start = &sc.produced[sc.start];
        let mut state = fw.produce(fw.resolve(&start.clone().into()).unwrap());
        let mut truth = ExplicitOrderings::from_physical(start);
        let mut accumulated: Vec<Fd> = Vec::new();
        for &op in &sc.ops {
            state = fw.infer(state, set_ids[op]);
            accumulated.extend(sc.fd_sets[op].iter().cloned());
            truth.close_under(&accumulated);
        }
        for (ordering, key) in fw.orders() {
            if fw.satisfies(state, key) {
                prop_assert!(
                    truth.contains(ordering),
                    "simmen wrongly claims {:?}", ordering
                );
            }
        }
    }

    /// Domination soundness: if state A dominates state B now, then
    /// after any further operator both still agree — A keeps satisfying
    /// everything B satisfies.
    #[test]
    fn domination_is_future_proof(sc in arb_scenario(), extra_ops in proptest::collection::vec(0usize..3, 0..=3)) {
        let mut spec = InputSpec::new();
        for o in &sc.produced {
            spec.add_produced(o.clone());
        }
        for o in &sc.tested {
            spec.add_tested(o.clone());
        }
        let set_ids: Vec<_> = sc.fd_sets.iter().map(|fds| spec.add_fd_set(fds.clone())).collect();
        let fw = OrderingFramework::prepare(&spec, PruneConfig::default()).unwrap();

        // Build two states: one via the op sequence, one plain.
        let start = &sc.produced[sc.start];
        let mut sa = fw.produce(fw.resolve(&start.clone().into()).unwrap());
        for &op in &sc.ops {
            sa = fw.infer(sa, set_ids[op]);
        }
        let sb = fw.produce(fw.resolve(&start.clone().into()).unwrap());
        if fw.dominates(sa, sb) {
            let mut fa = sa;
            let mut fb = sb;
            for &op in &extra_ops {
                if op < set_ids.len() {
                    fa = fw.infer(fa, set_ids[op]);
                    fb = fw.infer(fb, set_ids[op]);
                }
            }
            for (_, h) in fw.orders() {
                if fw.satisfies(fb, h) {
                    prop_assert!(fw.satisfies(fa, h), "domination violated later");
                }
            }
        }
    }
}
