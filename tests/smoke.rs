//! Root smoke test: the README / `examples/quickstart.rs` path, run
//! against the `ofw` facade exactly as a downstream user would, with the
//! paper's §5 running example asserted against Figs. 9–10. Also touches
//! every facade module once, so a broken re-export fails here rather
//! than in a downstream crate.

use ofw::catalog::AttrId;
use ofw::core::{Fd, InputSpec, OrderOracle, Ordering, OrderingFramework, PruneConfig, State};

fn o(ids: &[AttrId]) -> Ordering {
    Ordering::new(ids.to_vec())
}

/// The quickstart, end to end: build the §5 input spec, prepare the
/// framework, and check `satisfies` (Fig. 9) and `infer` (Fig. 10)
/// through the O(1) ADT.
#[test]
fn quickstart_running_example_matches_figs_9_and_10() {
    let [a, b, c, d] = [AttrId(0), AttrId(1), AttrId(2), AttrId(3)];

    let mut spec = InputSpec::new();
    spec.add_produced(o(&[b]));
    spec.add_produced(o(&[a, b]));
    spec.add_tested(o(&[a, b, c]));
    let f_bc = spec.add_fd_set(vec![Fd::functional(&[b], c)]);
    let f_bd = spec.add_fd_set(vec![Fd::functional(&[b], d)]);

    let fw = OrderingFramework::prepare(&spec, PruneConfig::default()).unwrap();

    // Fig. 8: three reachable states plus the explicit empty state.
    assert_eq!(fw.stats().dfsm_states, 4);
    // {b→d} can never matter — pruned in step 2(b).
    assert_eq!(fw.stats().pruned_fds, 1);

    let h = |ord: &Ordering| fw.resolve(&ord.clone().into()).unwrap();
    let (h_a, h_b, h_ab, h_abc) = (h(&o(&[a])), h(&o(&[b])), h(&o(&[a, b])), h(&o(&[a, b, c])));

    // Fig. 9, row by row: state 1 = sort by (b), state 2 = sort by
    // (a,b), state 3 = state 2 after {b→c}.
    let s1 = fw.produce(h_b);
    let s2 = fw.produce(h_ab);
    let s3 = fw.infer(s2, f_bc);
    let row = |s: State| {
        [
            fw.satisfies(s, h_a),
            fw.satisfies(s, h_b),
            fw.satisfies(s, h_ab),
            fw.satisfies(s, h_abc),
        ]
    };
    assert_eq!(row(s1), [false, true, false, false], "Fig. 9 state 1");
    assert_eq!(row(s2), [true, false, true, false], "Fig. 9 state 2");
    assert_eq!(row(s3), [true, false, true, true], "Fig. 9 state 3");

    // Fig. 10, the transition table: {b→c} advances state 2 to state 3
    // and loops everywhere else; the pruned {b→d} is the identity.
    assert_eq!(fw.infer(s1, f_bc), s1);
    assert_eq!(fw.infer(s3, f_bc), s3);
    for s in [s1, s2, s3] {
        assert_eq!(fw.infer(s, f_bd), s, "pruned FD must be a no-op");
    }

    // §5.6 walkthrough: sort by (a,b), apply {b→c}, and (a,b,c) holds.
    let s = fw.produce(h_ab);
    assert!(fw.satisfies(s, h_ab) && !fw.satisfies(s, h_abc));
    let s = fw.infer(s, f_bc);
    assert!(fw.satisfies(s, h_abc));
}

/// The combined-framework quickstart: groupings ride on the same
/// 4-byte state and the same O(1) probes.
#[test]
fn grouping_quickstart() {
    use ofw::core::Grouping;
    let [a, b, c] = [AttrId(0), AttrId(1), AttrId(2)];
    let mut spec = InputSpec::new();
    spec.add_produced(o(&[a, b]));
    spec.add_produced(Grouping::new(vec![a, b]));
    spec.add_tested(Grouping::new(vec![a, b, c]));
    let f_bc = spec.add_fd_set(vec![Fd::functional(&[b], c)]);
    let fw = OrderingFramework::prepare(&spec, PruneConfig::default()).unwrap();

    let g_ab = fw.resolve(&Grouping::new(vec![a, b]).into()).unwrap();
    let g_abc = fw.resolve(&Grouping::new(vec![a, b, c]).into()).unwrap();
    // Sorted ⇒ grouped; hash-grouped ⇒ grouped but unsorted.
    let sorted = fw.produce(fw.resolve(&o(&[a, b]).into()).unwrap());
    assert!(fw.satisfies(sorted, g_ab));
    let grouped = fw.produce(g_ab);
    assert!(fw.satisfies(grouped, g_ab));
    assert!(!fw.satisfies(grouped, fw.resolve(&o(&[a, b]).into()).unwrap()));
    // FDs extend groupings by set insertion, in O(1).
    assert!(fw.satisfies(fw.infer(grouped, f_bc), g_abc));
}

/// Every facade module resolves and its headline type is usable: a
/// stale `pub use` in `src/lib.rs` fails this test at compile time.
#[test]
fn facade_reexports_are_wired() {
    // common
    let mut bits = ofw::common::BitSet::new();
    bits.insert(3);
    assert!(bits.contains(3));

    // catalog + query
    let mut catalog = ofw::catalog::Catalog::new();
    catalog.add_relation("r", 100.0, &["x", "y"]);
    catalog.add_relation("s", 50.0, &["x"]);
    let query = ofw::query::QueryBuilder::new(&catalog)
        .relation("r")
        .relation("s")
        .join("r.x", "s.x", 0.1)
        .build();
    let ex = ofw::query::extract(
        &catalog,
        &query,
        &ofw::query::extract::ExtractOptions::default(),
    );

    // core + simmen + plangen, over the same extracted spec
    let fw =
        ofw::core::OrderingFramework::prepare(&ex.spec, ofw::core::PruneConfig::default()).unwrap();
    let ours = ofw::plangen::PlanGen::new(&catalog, &query, &ex, &fw).run();
    let simmen = ofw::simmen::SimmenFramework::prepare(&ex.spec);
    let baseline = ofw::plangen::PlanGen::new(&catalog, &query, &ex, &simmen).run();
    assert!(ours.cost.is_finite() && ours.cost > 0.0);
    assert!((ours.cost - baseline.cost).abs() / ours.cost < 1e-9);

    // workload
    let (cat8, q8) = ofw::workload::q8_query();
    assert_eq!(q8.relations.len(), 8);
    assert!(cat8.num_attrs() > 0);
}
