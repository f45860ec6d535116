//! Large joins through the one planning path: exhaustive where the
//! graph allows it, the budgeted fallback where not — same builder,
//! nothing to choose.
//!
//! 1. a **50-relation cycle** — wide, but sparse: only O(n²) connected
//!    subsets exist, so csg-cmp enumeration over the join-graph
//!    neighborhoods stays far inside the enumeration budget and the
//!    query is planned exactly.
//! 2. a **50-relation clique** — dense: the csg-cmp pair count is
//!    astronomically past the budget, so the planner falls back to
//!    greedy linearization + a sliding local-DP window
//!    (`stats.fallback`) and still plans the query end to end.
//!
//! Run with: `cargo run --release --example large_join`

use ofw::core::{OrderingFramework, PruneConfig};
use ofw::plangen::PlanGen;
use ofw::query::extract::ExtractOptions;
use ofw::workload::{large_query, LargeQueryConfig, Topology};
use std::time::Instant;

fn main() {
    for topology in [Topology::Cycle, Topology::Clique] {
        let (catalog, query) = large_query(&LargeQueryConfig {
            topology,
            num_relations: 50,
            seed: 50,
        });
        // Lean extraction (no per-join interesting orders) keeps Pareto
        // sets narrow enough for a 50-wide sweep.
        let ex = ofw::query::extract(&catalog, &query, &ExtractOptions::lean());
        let fw = OrderingFramework::prepare(&ex.spec, PruneConfig::default()).unwrap();

        let t0 = Instant::now();
        let r = PlanGen::new(&catalog, &query, &ex, &fw).run();
        println!(
            "{topology:?}-50, DFSM arm: fallback={}  {:.1}ms  plans={}  pairs={}  unions={}  cost={:.3e}",
            r.stats.fallback,
            t0.elapsed().as_secs_f64() * 1e3,
            r.stats.plans,
            r.stats.pairs_emitted,
            r.stats.unions,
            r.cost,
        );
        assert_eq!(r.arena.node(r.best).mask, query.all_relations_set());
        match topology {
            Topology::Cycle => {
                assert!(!r.stats.fallback, "a 50-cycle fits the budget");
                assert_eq!((r.stats.pairs_emitted, r.stats.plans), (120_050, 43_477));
            }
            _ => assert!(r.stats.fallback, "a 50-clique must exceed the budget"),
        }
    }
}
