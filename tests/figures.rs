//! E1–E4: exact reproductions of the paper's worked figures, asserted at
//! the public-API level.

use ofw::catalog::{AttrId, Catalog};
use ofw::core::{Fd, InputSpec, OrderOracle, Ordering, OrderingFramework, PruneConfig};
use ofw::query::extract::ExtractOptions;
use ofw::query::QueryBuilder;

const A: AttrId = AttrId(0);
const B: AttrId = AttrId(1);
const C: AttrId = AttrId(2);
const D: AttrId = AttrId(3);

fn o(ids: &[AttrId]) -> Ordering {
    Ordering::new(ids.to_vec())
}

/// Figs. 1–2: interesting order (a,b,c) with FD {b→d}. The NFSM adds
/// the d-orderings (a,b,d), (a,b,d,c), (a,b,c,d); the DFSM collapses
/// them into a single follow-up state.
#[test]
fn fig1_2_nfsm_and_dfsm_for_abc_with_b_to_d() {
    let mut spec = InputSpec::new();
    spec.add_produced(o(&[A, B, C]));
    let f_bd = spec.add_fd_set(vec![Fd::functional(&[B], D)]);

    // Without pruning: the NFSM of Fig. 1.
    let fw = OrderingFramework::prepare(&spec, PruneConfig::none()).unwrap();
    for node in [
        o(&[A]),
        o(&[A, B]),
        o(&[A, B, C]),
        o(&[A, B, D]),
        o(&[A, B, D, C]),
        o(&[A, B, C, D]),
    ] {
        assert!(
            fw.nfsm().node_of(&node).is_some(),
            "Fig. 1 node {node:?} missing"
        );
    }
    // The DFSM of Fig. 2: start + {a,ab,abc} + the merged d-state.
    assert_eq!(
        fw.stats().dfsm_states,
        3,
        "empty + the two states of Fig. 2"
    );
    let s1 = fw.produce(fw.resolve(&o(&[A, B, C]).into()).unwrap());
    let s2 = fw.infer(s1, f_bd);
    assert_ne!(s1, s2);
    assert_eq!(fw.infer(s2, f_bd), s2, "d-state is a fixpoint");
    // Both states satisfy (a),(a,b),(a,b,c) — and with pruning the FD
    // is dropped entirely because d occurs in no interesting order.
    let fw_pruned = OrderingFramework::prepare(&spec, PruneConfig::default()).unwrap();
    assert_eq!(fw_pruned.stats().pruned_fds, 1);
}

/// Figs. 4–7: the running example's NFSM after each §5.3 step, and
/// Figs. 8–10: the DFSM with its precomputed tables.
#[test]
fn fig4_to_10_running_example() {
    let mut spec = InputSpec::new();
    spec.add_produced(o(&[B]));
    spec.add_produced(o(&[A, B]));
    spec.add_tested(o(&[A, B, C]));
    let f_bc = spec.add_fd_set(vec![Fd::functional(&[B], C)]);
    let f_bd = spec.add_fd_set(vec![Fd::functional(&[B], D)]);

    let fw = OrderingFramework::prepare(&spec, PruneConfig::default()).unwrap();

    // Fig. 7 (final NFSM): exactly (a), (b), (a,b), (a,b,c) + ().
    assert_eq!(fw.stats().nfsm_nodes, 5);
    for node in [o(&[A]), o(&[B]), o(&[A, B]), o(&[A, B, C])] {
        assert!(fw.nfsm().node_of(&node).is_some());
    }
    assert!(
        fw.nfsm().node_of(&o(&[B, C])).is_none(),
        "(b,c) pruned (Fig. 6)"
    );
    assert!(
        fw.nfsm().node_of(&o(&[A, B, D])).is_none(),
        "{{b→d}} pruned"
    );

    // Fig. 8: 3 DFSM states (+ our explicit empty state).
    assert_eq!(fw.stats().dfsm_states, 4);

    // Fig. 9: the contains matrix.
    let h = |ord: &Ordering| fw.resolve(&ord.clone().into()).unwrap();
    let (h_a, h_ab, h_abc, h_b) = (h(&o(&[A])), h(&o(&[A, B])), h(&o(&[A, B, C])), h(&o(&[B])));
    let s1 = fw.produce(h_b); // node 1 = {(b)}
    let s2 = fw.produce(h_ab); // node 2 = {(a),(a,b)}
    let s3 = fw.infer(s2, f_bc); // node 3 = {(a),(a,b),(a,b,c)}
    let row = |s| {
        [
            fw.satisfies(s, h_a),
            fw.satisfies(s, h_ab),
            fw.satisfies(s, h_abc),
            fw.satisfies(s, h_b),
        ]
    };
    assert_eq!(row(s1), [false, false, false, true], "Fig. 9 row 1");
    assert_eq!(row(s2), [true, true, false, false], "Fig. 9 row 2");
    assert_eq!(row(s3), [true, true, true, false], "Fig. 9 row 3");

    // Fig. 10: the transition table.
    assert_eq!(fw.infer(s1, f_bc), s1, "row 1: {{b→c}} loops");
    assert_eq!(fw.infer(s2, f_bc), s3, "row 2: {{b→c}} advances to 3");
    assert_eq!(fw.infer(s3, f_bc), s3, "row 3: fixpoint");
    for s in [s1, s2, s3] {
        assert_eq!(fw.infer(s, f_bd), s, "pruned FD is the identity");
    }
}

/// Figs. 11–12: the simple persons/jobs query of §6.1. The equation
/// `persons.jobid = jobs.id` makes id- and jobid-orderings mutually
/// derivable (the DFSM merges the permutations, Fig. 12), and the
/// tested-only (salary) state stays unreachable.
#[test]
fn fig11_12_simple_query() {
    let mut catalog = Catalog::new();
    catalog.add_relation("persons", 10_000.0, &["id", "name", "jobid"]);
    catalog.add_relation("jobs", 100.0, &["id", "salary"]);
    let jobs = catalog.relation_id("jobs").unwrap();
    let jid = catalog.attr("jobs.id");
    catalog.add_index(jobs, vec![jid], true);
    let query = QueryBuilder::new(&catalog)
        .relation("persons")
        .relation("jobs")
        .join("persons.jobid", "jobs.id", 0.01)
        .filter("jobs.salary", 0.3)
        .order_by(&["jobs.id", "persons.name"])
        .build();
    let ex = ofw::query::extract(
        &catalog,
        &query,
        &ExtractOptions {
            tested_selection_orders: true,
            ..ExtractOptions::default()
        },
    );
    let fw = OrderingFramework::prepare(&ex.spec, PruneConfig::default()).unwrap();

    let pjobid = catalog.attr("persons.jobid");
    let pname = catalog.attr("persons.name");
    let salary = catalog.attr("jobs.salary");

    // (salary) is interesting (testable) but not producible: no operator
    // generates it, so no artificial start edge exists ("the state for
    // salary cannot be reached").
    let h_salary = fw.resolve(&o(&[salary]).into()).unwrap();
    assert!(!fw.is_producible(h_salary));

    // Fig. 11's id=jobid edge: a stream ordered by (jobs.id), after the
    // join applies id = jobid, satisfies (persons.jobid) as well.
    let h_id = fw.resolve(&o(&[jid]).into()).unwrap();
    let h_jobid = fw.resolve(&o(&[pjobid]).into()).unwrap();
    let s = fw.produce(h_id);
    assert!(fw.satisfies(s, h_id));
    assert!(!fw.satisfies(s, h_jobid), "before the equation");
    let s = fw.infer(s, ex.join_fd[0]);
    assert!(
        fw.satisfies(s, h_jobid),
        "after the equation (Fig. 11 edge)"
    );

    // Fig. 12's big state: sorted by (id,name) + equation satisfies the
    // order-by and all single-attribute join orders at once.
    let h_id_name = fw.resolve(&o(&[jid, pname]).into()).unwrap();
    let s = fw.produce(h_id_name);
    let s = fw.infer(s, ex.join_fd[0]);
    for h in [h_id, h_jobid, h_id_name] {
        assert!(fw.satisfies(s, h), "Fig. 12 merged state");
    }
    assert!(!fw.satisfies(s, h_salary));
}

/// §2's introductory example as ground truth: sorted on (a,b), then a
/// selection x = const makes the stream satisfy the six additional
/// logical orderings the paper lists.
#[test]
fn section2_constant_example_via_dfsm() {
    let x = D;
    let mut spec = InputSpec::new();
    spec.add_produced(o(&[A, B]));
    // Make the x-interleavings interesting so they are representable.
    spec.add_tested(o(&[x, A, B]));
    spec.add_tested(o(&[A, x, B]));
    spec.add_tested(o(&[A, B, x]));
    let f_x = spec.add_fd_set(vec![Fd::constant(x)]);
    let fw = OrderingFramework::prepare(&spec, PruneConfig::default()).unwrap();

    let s = fw.produce(fw.resolve(&o(&[A, B]).into()).unwrap());
    let s = fw.infer(s, f_x);
    for probe in [
        o(&[x, A, B]),
        o(&[A, x, B]),
        o(&[A, B, x]),
        o(&[x, A]),
        o(&[A, x]),
        o(&[x]),
        o(&[A, B]),
        o(&[A]),
    ] {
        let h = fw
            .resolve(&probe.clone().into())
            .unwrap_or_else(|| panic!("{probe:?} not interesting"));
        assert!(fw.satisfies(s, h), "{probe:?} must hold");
    }
}
