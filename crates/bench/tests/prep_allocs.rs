//! Allocation guard for preparation: output-sensitive, deterministically.
//!
//! `ofw-bench` installs the counting global allocator, so this test
//! binary can difference [`allocation_count`] around
//! `OrderingFramework::prepare`. The `prep_spec` families are
//! independent, so NFSM nodes, edges and DFSM states grow exactly
//! linearly in the family count — and so must the work that builds
//! them. Wall-clock cannot be asserted in tier-1; the allocation count
//! is exact and repeats, and it tracks the same loops: a closure per
//! node × symbol, or an admission kernel that clones a set per call,
//! shows up here as a ratio of 11 and 658 allocations per node (what
//! both read before preparation was indexed).
//!
//! One `#[test]` only: the counter is process-global, and a second test
//! running on another harness thread would be counted too.

extern crate ofw_bench; // links the `#[global_allocator]`

use ofw_common::alloc::allocation_count;
use ofw_core::{OrderingFramework, PruneConfig};
use ofw_workload::{prep_spec, PrepSpecConfig};

/// Allocations of one cold prepare, and the NFSM size before pruning.
fn prepare_allocs(families: usize) -> (u64, usize) {
    let spec = prep_spec(&PrepSpecConfig::with_families(families));
    let before = allocation_count();
    let fw = OrderingFramework::prepare(&spec, PruneConfig::default()).unwrap();
    let allocs = allocation_count() - before;
    (allocs, fw.stats().nfsm_nodes_before_prune)
}

#[test]
fn preparation_allocates_in_proportion_to_the_automaton() {
    let (a10, nodes10) = prepare_allocs(10);
    let (a20, _) = prepare_allocs(20);
    let (a40, nodes40) = prepare_allocs(40);
    assert_eq!(
        (nodes10, nodes40),
        (491, 1961),
        "the automata themselves are linear"
    );
    // A constant number of allocations per node: the node, its ε and
    // edge lists, its share of the DFSM — not its closures' scratch.
    assert!(
        a10 <= 60 * nodes10 as u64,
        "{a10} allocations for {nodes10} NFSM nodes: more than 60 per node"
    );
    // Linear in the family count: 4 × the families, 4 × the allocations
    // (plus the logarithmic regrowth of a few tables).
    assert!(a20 > a10 && a40 > a20, "{a10} / {a20} / {a40}");
    assert!(
        a40 as f64 <= 4.6 * a10 as f64,
        "fam-40 {a40} vs fam-10 {a10}: ratio {:.2} > 4.6",
        a40 as f64 / a10 as f64
    );
}
