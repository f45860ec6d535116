//! Allocation guard for relation sets: masks are words, not heap blocks.
//!
//! Every plan node carries a relation mask and an applied-FD mask, and
//! the DP builds, copies and combines masks for every csg-cmp pair. Up
//! to 64 relations (and 64 FD sets) a `BitSet` is one inline word, so
//! none of that may touch the allocator. `ofw-bench` installs the
//! counting global allocator, so this binary can difference
//! [`allocation_count`] around the set operations, and around one whole
//! `PlanGen::run` per plan that entered the table: 38.6 allocations per
//! plan while every set was a `Vec<u64>` sized to its universe, 25.2
//! with inline words, 24.6 once plans went straight into one arena
//! instead of a per-union one, still 24.6 (732,359 → 732,337 in a debug
//! build) once the bound provider ran through the generator's own
//! driver instead of a second `PlanGen` (29,789 plans each time); the
//! ceiling is that plus 14 %. The rest is item 2 of the ROADMAP: merge
//! keys resolved per pair, per-union Pareto scratch, operator key
//! vectors.
//!
//! One `#[test]` only: the counter is process-global, and a second test
//! running on another harness thread would be counted too.

#![forbid(unsafe_code)]

extern crate ofw_bench; // links the `#[global_allocator]`

use ofw_common::alloc::allocation_count;
use ofw_common::BitSet;
use ofw_core::{OrderingFramework, PruneConfig};
use ofw_plangen::PlanGen;
use ofw_query::extract::ExtractOptions;
use ofw_query::JoinGraph;
use ofw_workload::{large_query, LargeQueryConfig, Topology};

#[test]
fn relation_sets_stay_off_the_heap() {
    // 64 relations: member 63 is the last one the inline word holds.
    let (catalog, query) = large_query(&LargeQueryConfig {
        topology: Topology::Chain,
        num_relations: 64,
        seed: 64,
    });
    let graph = JoinGraph::new(&query);

    let before = allocation_count();
    let all = query.all_relations_set();
    let mut odd = BitSet::new();
    for q in (1..64).step_by(2) {
        odd.union_with(&query.relation_set(q));
    }
    let mut even = all.clone();
    even.difference_with(&odd);
    let frontier = graph.neighborhood(&odd, &query.relation_set(0));
    let observed = (
        all.is_superset(&even),
        even.is_superset(&odd),
        frontier.len(),
        frontier.is_superset(&even),
    );
    let allocs = allocation_count() - before;
    assert_eq!(observed, (true, false, 31, false));
    assert_eq!(
        allocs, 0,
        "relation-set operations on 64 relations allocated"
    );

    let ex = ofw_query::extract(&catalog, &query, &ExtractOptions::lean());
    let fw = OrderingFramework::prepare(&ex.spec, PruneConfig::default()).unwrap();
    let before = allocation_count();
    let result = PlanGen::new(&catalog, &query, &ex, &fw).run();
    let allocs = allocation_count() - before;
    assert_eq!(
        result.arena.node(result.best).mask,
        query.all_relations_set()
    );
    let per_plan = allocs as f64 / result.stats.plans as f64;
    assert!(
        per_plan <= 28.0,
        "{allocs} allocations for {} plans: {per_plan:.2} per plan > 28 — heap masks are back?",
        result.stats.plans
    );
}
