//! Property-based tests on the core derivation machinery, complementary
//! to the cross-crate equivalence suite in the workspace `tests/props.rs`:
//! these target individual invariants of orderings, derivations and the
//! preparation pipeline.

#![forbid(unsafe_code)]

use ofw_catalog::AttrId;
use ofw_core::derive::{DeriveCtx, Scratch};
use ofw_core::eqclass::EqClasses;
use ofw_core::fd::Fd;
use ofw_core::filter::{GroupingFilter, PrefixFilter};
use ofw_core::ordering::Ordering;
use ofw_core::property::{Grouping, HeadTail, LogicalProperty};
use ofw_core::{
    ExplicitOrderings, FdSet, InputSpec, OrderOracle, OrderingFramework, PrepareOptions,
    PruneConfig,
};
use proptest::prelude::*;
use std::collections::HashSet;

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

/// The constants and representative-space dependencies of `fds`, as the
/// filter doc comments define them (equations are the identity, trivial
/// dependencies drop out).
fn rep_space(fds: &[Fd], eq: &EqClasses) -> (HashSet<AttrId>, Vec<(Vec<AttrId>, AttrId)>) {
    let mut consts = HashSet::new();
    let mut rep_fds = Vec::new();
    for fd in fds {
        match fd {
            Fd::Constant(a) => {
                consts.insert(eq.find(*a));
            }
            Fd::Functional { lhs, rhs } => {
                let lhs = eq.map_slice(lhs);
                let rhs = eq.find(*rhs);
                if !lhs.contains(&rhs) {
                    rep_fds.push((lhs, rhs));
                }
            }
            Fd::Equation(_, _) => {}
        }
    }
    (consts, rep_fds)
}

/// Fixpoint of `set` under `rep_fds`, by scanning every dependency.
fn naive_close(set: &mut HashSet<AttrId>, rep_fds: &[(Vec<AttrId>, AttrId)]) {
    loop {
        let before = set.len();
        for (lhs, rhs) in rep_fds {
            if lhs.iter().all(|l| set.contains(l)) {
                set.insert(*rhs);
            }
        }
        if set.len() == before {
            return;
        }
    }
}

/// `PrefixFilter::admitted_len`, transcribed from its doc comments with
/// one hash set per candidate position and one alignment grid per
/// interesting order — the definition the indexed kernel must equal.
fn naive_admitted_len(
    interesting: &[Ordering],
    fds: &[Fd],
    eq: &EqClasses,
    candidate: &[AttrId],
    cap: usize,
) -> usize {
    let (consts, rep_fds) = rep_space(fds, eq);
    let multi_lhs: HashSet<AttrId> = fds
        .iter()
        .filter_map(|fd| match fd {
            Fd::Functional { lhs, .. } if lhs.len() >= 2 => Some(eq.map_slice(lhs)),
            _ => None,
        })
        .flatten()
        .collect();
    let cand = eq.map_slice(candidate);
    // avail[i]: constant closure of the first i candidate attributes.
    let mut cur = consts.clone();
    naive_close(&mut cur, &rep_fds);
    let mut avail = vec![cur.clone()];
    for &c in &cand {
        cur.insert(c);
        naive_close(&mut cur, &rep_fds);
        avail.push(cur.clone());
    }
    let strippable: Vec<bool> = (0..cand.len())
        .map(|i| {
            let before = &cand[..i];
            consts.contains(&cand[i])
                || before.contains(&cand[i])
                || rep_fds
                    .iter()
                    .any(|(lhs, rhs)| *rhs == cand[i] && lhs.iter().all(|l| before.contains(l)))
        })
        .collect();
    let mut best = 0usize;
    for io in interesting {
        let io = eq.map_slice(io.attrs());
        let (nc, ni) = (cand.len(), io.len());
        let mut reach = vec![vec![false; ni + 1]; nc + 1];
        reach[0][0] = true;
        for ci in 0..nc {
            for ii in 0..=ni {
                if !reach[ci][ii] {
                    continue;
                }
                if strippable[ci] {
                    reach[ci + 1][ii] = true;
                    if ii < ni && ci < cap {
                        best = best.max(ci + 1);
                    }
                }
                if ii < ni {
                    if io[ii] == cand[ci] {
                        reach[ci + 1][ii + 1] = true;
                        if ci < cap {
                            best = best.max(ci + 1);
                        }
                    }
                    if avail[ci].contains(&io[ii]) {
                        reach[ci][ii + 1] = true;
                    }
                }
            }
        }
    }
    while best > 0 && best < cand.len() && best < cap {
        if multi_lhs.contains(&cand[best]) && cand[..best].contains(&cand[best]) {
            best += 1;
        } else {
            break;
        }
    }
    best
}

/// `GroupingFilter::admits`, transcribed from its doc comment: some
/// interesting grouping lies inside the FD closure of the candidate's
/// representatives plus the constants.
fn naive_admits(interesting: &[Grouping], fds: &[Fd], eq: &EqClasses, g: &Grouping) -> bool {
    let (consts, rep_fds) = rep_space(fds, eq);
    let mut closure: HashSet<AttrId> = eq.map_slice(g.attrs()).into_iter().collect();
    closure.extend(consts);
    naive_close(&mut closure, &rep_fds);
    interesting
        .iter()
        .any(|i| i.attrs().iter().all(|&a| closure.contains(&eq.find(a))))
}

/// A traced prepare records its phases as depth-1 children of
/// `prepare`, in pipeline order, with FD pruning — step 2(b), the
/// largest stage on small queries — as a span of its own.
#[test]
fn traced_prepare_records_its_phases_in_order() {
    let [a, b, c, d] = [AttrId(0), AttrId(1), AttrId(2), AttrId(3)];
    let mut spec = InputSpec::new();
    spec.add_produced(Ordering::new(vec![b]));
    spec.add_produced(Ordering::new(vec![a, b]));
    spec.add_tested(Ordering::new(vec![a, b, c]));
    spec.add_fd_set(vec![Fd::functional(&[b], c)]);
    spec.add_fd_set(vec![Fd::functional(&[b], d)]);
    let trace = ofw_obs::Trace::recording();
    let options = PrepareOptions::default().trace(&trace);
    OrderingFramework::prepare_opts(&spec, PruneConfig::default(), &options).unwrap();
    let records = trace.records();
    let skeleton: Vec<(&str, u16)> = records.iter().map(|r| (r.name, r.depth)).collect();
    assert_eq!(
        skeleton,
        [
            ("prepare", 0),
            ("prune_fds", 1),
            ("nfsm", 1),
            ("determinize", 1)
        ]
    );
    assert_eq!(records[1].counters, [("fd_sets", 2), ("pruned_fds", 1)]);
}

/// Attribute ids are sparse (catalogs number them globally, the
/// benchmark shifts them by tens of thousands): a spec over ids up to
/// `u32::MAX` prepares to the same automaton sizes and the same probe
/// answers as its order-preserving renaming onto `0..6` — nothing in
/// preparation may be sized by an attribute's value.
#[test]
fn sparse_attribute_ids_prepare_like_dense_ones() {
    let build = |ids: [u32; 6]| {
        let [a, b, c, d, e, f] = ids.map(AttrId);
        let mut spec = InputSpec::new();
        spec.add_produced(Ordering::new(vec![b, a]));
        spec.add_produced(Ordering::new(vec![f]));
        spec.add_produced(Grouping::new(vec![a, c]));
        spec.add_tested(Ordering::new(vec![b, a, d, f]));
        spec.add_tested(Grouping::new(vec![a, b, c, e]));
        spec.add_tested(HeadTail::new(
            Grouping::new(vec![b]),
            Ordering::new(vec![a, d]),
        ));
        let sets = vec![
            spec.add_fd_set(vec![Fd::functional(&[a, b], d)]),
            spec.add_fd_set(vec![Fd::equation(c, f), Fd::functional(&[c], e)]),
            spec.add_fd_set(vec![Fd::constant(e)]),
            spec.add_fd_set(vec![Fd::functional(&[a], c)]),
        ];
        let fw = OrderingFramework::prepare(&spec, PruneConfig::default()).unwrap();
        (spec, sets, fw)
    };
    let (dense_spec, sets, dense) = build([0, 1, 2, 3, 4, 5]);
    let (sparse_spec, _, sparse) =
        build([5, 65_472, 70_000, 4_000_000_000, u32::MAX - 1, u32::MAX]);
    let sizes = |fw: &OrderingFramework| {
        let s = fw.stats();
        let nfsm = (s.nfsm_nodes_before_prune, s.nfsm_nodes, s.nfsm_edges);
        (nfsm, s.dfsm_states, s.pruned_fds, s.precomputed_bytes)
    };
    assert_eq!(sizes(&dense), sizes(&sparse));
    // Every interesting property, probed from every produced start
    // state after every prefix of a fixed operator sequence.
    let interesting = |spec: &InputSpec| spec.interesting().cloned().collect::<Vec<_>>();
    let sequence = [0usize, 3, 1, 2, 0, 1];
    for (dp, sp) in dense_spec.produced().iter().zip(sparse_spec.produced()) {
        let mut ds = dense.produce(dense.resolve(dp).unwrap());
        let mut ss = sparse.produce(sparse.resolve(sp).unwrap());
        for &op in &sequence {
            ds = dense.infer(ds, sets[op]);
            ss = sparse.infer(ss, sets[op]);
            for (d, s) in interesting(&dense_spec)
                .iter()
                .zip(&interesting(&sparse_spec))
            {
                let dh = dense.resolve(d).unwrap();
                let sh = sparse.resolve(s).unwrap();
                assert_eq!(dense.satisfies(ds, dh), sparse.satisfies(ss, sh), "{d:?}");
            }
        }
    }
}

proptest! {
    /// The indexed, memoized admission kernel equals the naive
    /// transcription of its definition — asked twice, so the memo is
    /// exercised, and under a finite cap as well as none. Attribute ids
    /// are spread out: nothing may be sized by their value.
    #[test]
    fn admitted_len_matches_its_definition(
        interesting in proptest::collection::vec(arb_ordering(), 0..=4),
        fds in proptest::collection::vec(arb_fd(), 0..=5),
        candidates in proptest::collection::vec(arb_ordering(), 1..=6),
        stray in 0u32..2,
        cap in 0usize..6,
    ) {
        let eq = EqClasses::from_fds(fds.iter());
        let filter = PrefixFilter::new(interesting.iter().map(Ordering::attrs), &fds, &eq, true);
        for c in &candidates {
            // Sometimes append an attribute the filter has never seen.
            let mut cand = c.attrs().to_vec();
            if stray == 1 {
                cand.push(AttrId(u32::MAX));
            }
            for cap in [usize::MAX, cap, usize::MAX] {
                prop_assert_eq!(
                    filter.admitted_len(&cand, &eq, cap),
                    naive_admitted_len(&interesting, &fds, &eq, &cand, cap),
                    "candidate {:?} cap {} orders {:?} fds {:?}", cand, cap, interesting, fds
                );
            }
        }
    }

    /// The same for the grouping admission test.
    #[test]
    fn admits_matches_its_definition(
        interesting in proptest::collection::vec(arb_grouping(), 0..=4),
        fds in proptest::collection::vec(arb_fd(), 0..=5),
        candidates in proptest::collection::vec(arb_grouping(), 1..=6),
    ) {
        let eq = EqClasses::from_fds(fds.iter());
        let filter = GroupingFilter::new(interesting.iter().map(Grouping::attrs), &fds, &eq, true);
        for g in candidates.iter().chain(candidates.iter()) {
            prop_assert_eq!(
                filter.admits(g.attrs()),
                naive_admits(&interesting, &fds, &eq, g),
                "candidate {:?} interesting {:?} fds {:?}", g, interesting, fds
            );
        }
    }

    /// One scratch reused across closures of different sources and
    /// dependency lists yields what a fresh scratch per call yields —
    /// same orderings, same order (NFSM numbering depends on it).
    #[test]
    fn closure_with_a_reused_scratch_equals_a_fresh_one(
        calls in proptest::collection::vec((arb_ordering(), arb_fds()), 1..=5),
        interesting in proptest::collection::vec(arb_ordering(), 1..=3),
    ) {
        let all: Vec<Fd> = calls.iter().flat_map(|(_, fds)| fds.iter().cloned()).collect();
        let eq = EqClasses::from_fds(all.iter());
        let filter = PrefixFilter::new(interesting.iter().map(Ordering::attrs), &all, &eq, true);
        let ctx = DeriveCtx { eq: &eq, filter: &filter, max_len: usize::MAX };
        let mut scratch = Scratch::default();
        for (o, fds) in &calls {
            prop_assert_eq!(ctx.closure_in(&mut scratch, o, fds), ctx.closure(o, fds));
        }
    }

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
        let filter = PrefixFilter::new(interesting.iter().map(Ordering::attrs), &fds, &eq, true);
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
            let h = fw.resolve(&o.clone().into()).expect("produced orders are interesting");
            let mut s = fw.produce(h);
            prop_assert!(fw.satisfies(s, h), "produce({:?}) must satisfy it", o);
            // Prefixes are satisfied too.
            for p in o.proper_prefixes() {
                let hp = fw.resolve(&p.into()).expect("prefixes are interesting");
                prop_assert!(fw.satisfies(s, hp));
            }
            // Monotonicity: applying operators never loses orders.
            let mut satisfied: Vec<_> =
                fw.properties().filter(|&(_, k)| fw.satisfies(s, k)).map(|(_, k)| k).collect();
            for &f in &ids {
                s = fw.infer(s, f);
                for &k in &satisfied {
                    prop_assert!(fw.satisfies(s, k), "inference lost an order");
                }
                satisfied =
                    fw.properties().filter(|&(_, k)| fw.satisfies(s, k)).map(|(_, k)| k).collect();
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
    /// `satisfies` probe after every `infer`
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
                let h = fw.resolve(p).expect("produced properties are interesting");
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
                let got = fw.satisfies(state, handle);
                let want = match &prop {
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
            let mut s = fw.produce(fw.resolve(&o.clone().into()).unwrap());
            states.push(s);
            for &f in &ids {
                s = fw.infer(s, f);
                states.push(s);
            }
        }
        for &a in &states {
            for &b in &states {
                if fw.dominates(a, b) {
                    for (_, k) in fw.properties() {
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
