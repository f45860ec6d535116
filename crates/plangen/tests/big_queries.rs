//! Above-64-relation regression: the DP must plan queries wider than one
//! machine word end to end — `BitSet` relation masks (lifted in PR 2)
//! *and* spillable applied-FD masks (a 70-relation chain carries 69 FD
//! sets, past the legacy `u64` bitmask that used to be asserted at
//! `PlanGen::new`).

#![forbid(unsafe_code)]

use ofw_core::{OrderingFramework, PruneConfig};
use ofw_plangen::PlanGen;
use ofw_query::extract::ExtractOptions;
use ofw_workload::{large_query, LargeQueryConfig, Topology};

#[test]
fn seventy_relation_chain_plans() {
    let (catalog, query) = large_query(&LargeQueryConfig {
        topology: Topology::Chain,
        num_relations: 70,
        seed: 70,
    });
    assert_eq!(query.num_relations(), 70);
    // Lean extraction: full FD sets (one per predicate — 69, past the
    // u64 boundary) but no per-join interesting orders, so the DP's
    // Pareto sets stay narrow and the 70-wide sweep fits a debug-mode
    // test run.
    let ex = ofw_query::extract(&catalog, &query, &ExtractOptions::lean());
    assert!(
        ex.spec.fd_sets().len() > 64,
        "the chain must exercise the spilled FD-mask path ({} FD sets)",
        ex.spec.fd_sets().len()
    );

    let fw = OrderingFramework::prepare(&ex.spec, PruneConfig::default()).unwrap();
    let r = PlanGen::new(&catalog, &query, &ex, &fw).run();
    assert_eq!(
        r.arena.node(r.best).mask,
        query.all_relations_set(),
        "the winner covers all 70 relations"
    );
    assert!(r.cost.is_finite() && r.cost > 0.0);

    // (Only the DFSM arm runs at this width: the Simmen baseline's
    // env-superset dominance cannot see that FDs applied on the build
    // side are irrelevant, so its Pareto widths — and plan allocations —
    // grow with subset size until 70 relations are out of reach. That
    // asymmetry is the paper's point; `tests/golden_counters.rs` pins it
    // at a size the baseline can still handle, a 10-relation chain.)
}
