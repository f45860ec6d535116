//! Above-64-relation regression: the DP must plan queries wider than one
//! machine word end to end — `BitSet` relation masks (lifted in PR 2)
//! *and* spillable applied-FD masks (a 70-relation chain carries 69 FD
//! sets, past the legacy `u64` bitmask that used to be asserted at
//! `PlanGen::new`) — through both the serial and the parallel driver.

use ofw_core::{OrderingFramework, PruneConfig};
use ofw_parallel::ThreadPool;
use ofw_plangen::PlanGen;
use ofw_query::extract::ExtractOptions;
use ofw_workload::{large_query, LargeQueryConfig, Topology};

#[test]
fn seventy_relation_chain_plans_through_both_drivers() {
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

    // DFSM arm, serial vs parallel: identical winner, bitwise cost.
    let fw = OrderingFramework::prepare(&ex.spec, PruneConfig::default()).unwrap();
    let serial = PlanGen::new(&catalog, &query, &ex, &fw).run();
    assert_eq!(
        serial.arena.node(serial.best).mask,
        query.all_relations_set(),
        "the winner covers all 70 relations"
    );
    assert!(serial.cost.is_finite() && serial.cost > 0.0);
    let pool = ThreadPool::new(2);
    let parallel = PlanGen::new(&catalog, &query, &ex, &fw).run_with(&pool);
    assert_eq!(parallel.best, serial.best);
    assert_eq!(parallel.cost.to_bits(), serial.cost.to_bits());
    assert_eq!(parallel.stats.plans, serial.stats.plans);

    // (Only the DFSM arm runs at this width: the Simmen baseline's
    // env-superset dominance cannot see that FDs applied on the build
    // side are irrelevant, so its Pareto widths — and plan allocations —
    // grow with subset size until 70 relations are out of reach. That
    // asymmetry is the paper's point; `tests/golden_counters.rs` pins it
    // at a size the baseline can still handle, a 10-relation chain.)
}
