//! Property-based tests on Simmen's reduction algorithm.

#![forbid(unsafe_code)]

use ofw_catalog::AttrId;
use ofw_core::fd::Fd;
use ofw_core::ordering::Ordering;
use ofw_simmen::reduce::{contains, reduce};
use proptest::prelude::*;

const NUM_ATTRS: u32 = 5;

fn arb_attr() -> impl Strategy<Value = AttrId> {
    (0..NUM_ATTRS).prop_map(AttrId)
}

fn arb_ordering() -> impl Strategy<Value = Ordering> {
    proptest::collection::vec(arb_attr(), 0..=4).prop_filter_map("dups", |attrs| {
        let mut seen = std::collections::HashSet::new();
        attrs
            .iter()
            .all(|a| seen.insert(*a))
            .then(|| Ordering::new(attrs))
    })
}

fn arb_fds() -> impl Strategy<Value = Vec<Fd>> {
    proptest::collection::vec(
        prop_oneof![
            (arb_attr(), arb_attr())
                .prop_filter_map("trivial", |(a, b)| (a != b).then(|| Fd::equation(a, b))),
            (proptest::collection::vec(arb_attr(), 1..=2), arb_attr())
                .prop_filter_map("trivial", |(lhs, rhs)| (!lhs.contains(&rhs))
                    .then(|| Fd::functional(&lhs, rhs))),
            arb_attr().prop_map(Fd::constant),
        ],
        0..=4,
    )
}

proptest! {
    /// Reduction is idempotent: reduce(reduce(o)) == reduce(o).
    #[test]
    fn reduction_is_idempotent(o in arb_ordering(), fds in arb_fds()) {
        let once = reduce(&o, &fds);
        prop_assert_eq!(reduce(&once, &fds), once);
    }

    /// Reduction never lengthens an ordering.
    #[test]
    fn reduction_never_lengthens(o in arb_ordering(), fds in arb_fds()) {
        prop_assert!(reduce(&o, &fds).len() <= o.len());
    }

    /// The reduced ordering is a subsequence of the representative-mapped
    /// input (reduction only removes, substitutes within classes).
    #[test]
    fn reduction_is_a_subsequence(o in arb_ordering(), fds in arb_fds()) {
        let eq = ofw_core::eqclass::EqClasses::from_fds(fds.iter());
        let mapped: Vec<AttrId> = eq.map_slice(o.attrs());
        let reduced = reduce(&o, &fds);
        let mut i = 0usize;
        for &r in reduced.attrs() {
            loop {
                prop_assert!(i < mapped.len(), "{:?} not a subsequence of {:?}", reduced, mapped);
                if mapped[i] == r {
                    i += 1;
                    break;
                }
                i += 1;
            }
        }
    }

    /// `contains` is reflexive and prefix-compatible: a physical ordering
    /// satisfies itself and all its prefixes under any dependencies.
    #[test]
    fn contains_is_reflexive_and_prefix_closed(o in arb_ordering(), fds in arb_fds()) {
        prop_assert!(contains(&o, &o, &fds));
        for l in 0..o.len() {
            prop_assert!(contains(&o, &o.prefix(l), &fds));
        }
    }

    /// Without dependencies, `contains` is exactly the prefix test.
    #[test]
    fn contains_without_fds_is_prefix(a in arb_ordering(), b in arb_ordering()) {
        prop_assert_eq!(contains(&a, &b, &[]), b.is_prefix_of(&a));
    }

    /// Reduction is deterministic: same inputs, same output — the
    /// non-confluence the paper describes is across *dependency
    /// orderings*, never across runs.
    #[test]
    fn reduction_is_deterministic(o in arb_ordering(), fds in arb_fds()) {
        prop_assert_eq!(reduce(&o, &fds), reduce(&o, &fds));
    }
}

/// Simmen's `contains` is not monotone in the dependency set: adding a
/// constant can *lose* a positive answer, because the constant removal
/// erases an attribute another dependency's left-hand side needed. This
/// is the same flavour of incompleteness as the §3 non-confluence and a
/// reason the FSM framework (which reasons over all derivation orders at
/// preparation time) exploits strictly more orderings.
#[test]
fn adding_a_constant_can_lose_containment() {
    const A0: AttrId = AttrId(0);
    const A1: AttrId = AttrId(1);
    const A2: AttrId = AttrId(2);
    let a = Ordering::new(vec![A1]);
    let b = Ordering::new(vec![A1, A0]);
    let fds = vec![Fd::functional(&[A1], A0), Fd::equation(A0, A2)];
    assert!(contains(&a, &b, &fds));
    let mut more = fds.clone();
    more.push(Fd::constant(A1));
    // a1 is removed from both sides first, so a1→a0 can no longer fire
    // and the (semantically still true) containment is missed.
    assert!(!contains(&a, &b, &more));
}
