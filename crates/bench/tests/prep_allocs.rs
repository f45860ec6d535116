//! Allocation guard for preparation: output-sensitive, deterministically.
//!
//! `ofw-bench` installs the counting global allocator, so this test
//! binary can difference [`allocation_count`] around
//! `OrderingFramework::prepare` and around each of its public stages.
//! The `prep_spec` families are independent, so NFSM nodes, edges and
//! DFSM states grow exactly linearly in the family count — and so must
//! the work that builds them. Wall-clock cannot be asserted in tier-1;
//! the allocation count is exact and repeats, and it tracks the same
//! loops: a closure per node × symbol, or an admission kernel that
//! clones a set per call, shows up here as a ratio of 11 and 658
//! allocations per node (what both read before preparation was
//! indexed). Preparation allocates per table, not per node, run or
//! property, so each stage has a ceiling of its own and a regression
//! names its stage. A warm [`PreparedCache`] hit builds no automaton: it
//! writes the cache key from the spec's views and reads the shared
//! automaton's views back through the renaming, into a few tables grown
//! by doubling, so its count barely grows with the spec.
//!
//! One `#[test]` only: the counter is process-global, and a second test
//! running on another harness thread would be counted too.

#![forbid(unsafe_code)]

extern crate ofw_bench; // links the `#[global_allocator]`

use ofw_common::alloc::allocation_count;
use ofw_core::prune::{prune_fds, prune_nfsm};
use ofw_core::{
    Dfsm, EqClasses, Nfsm, OrderingFramework, PrepareOptions, PreparedCache, PruneConfig,
};
use ofw_workload::{prep_spec, PrepSpecConfig};

/// Ceilings in allocations per unit of the automaton, checked at
/// fam-10 (the binding size: fixed costs weigh most there). Each is the
/// debug build's measured ratio plus at most 15 % headroom.
const PREPARE_PER_NODE: f64 = 3.4; // 1,463 / 491 nodes = 2.98 measured
const STAGE_CEILINGS: [(&str, &str, f64); 3] = [
    ("prune_fds", "FD set", 19.0),             // 497 / 30 = 16.57 measured
    ("Nfsm::build + prune_nfsm", "node", 2.0), // 873 / 491 = 1.78 measured
    ("Dfsm::build", "state", 0.49),            // 74 / 171 = 0.43 measured
];

/// Ceilings on one warm `prepare_cached` hit, at fam-10 and fam-40:
/// the debug build's measured count plus at most 15 % headroom.
const WARM_HIT_CEILINGS: [(usize, u64); 2] = [(10, 44), (40, 57)]; // 39 and 50 measured

/// Allocations `f` makes, and its result.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = allocation_count();
    let out = f();
    (allocation_count() - before, out)
}

/// One cold prepare of a `prep_spec`, then its stages one by one.
struct Observed {
    /// Allocations of `OrderingFramework::prepare`.
    prepare: u64,
    /// NFSM nodes before pruning.
    nodes: usize,
    /// Per stage of [`STAGE_CEILINGS`], its allocations and the size
    /// they are charged to: FD sets, NFSM nodes before pruning, DFSM
    /// states.
    stages: [(u64, usize); 3],
}

fn observe(families: usize) -> Observed {
    let spec = prep_spec(&PrepSpecConfig::with_families(families));
    let config = PruneConfig::default();
    let (prepare, fw) = counted(|| OrderingFramework::prepare(&spec, config.clone()).unwrap());
    let nodes = fw.stats().nfsm_nodes_before_prune;
    let eq = EqClasses::from_fds(spec.fd_sets().iter().flat_map(|s| s.fds().iter()));
    let (prune, (sets, _)) = counted(|| prune_fds(&spec, &eq, &config));
    let (build, nfsm) = counted(|| {
        let nfsm = Nfsm::build(&spec, &sets, &eq, &config).unwrap();
        prune_nfsm(nfsm, &config)
    });
    let (determinize, dfsm) = counted(|| Dfsm::build(&nfsm, &config).unwrap());
    Observed {
        prepare,
        nodes,
        stages: [
            (prune, spec.fd_sets().len()),
            (build, nodes),
            (determinize, dfsm.num_states()),
        ],
    }
}

/// Allocations of one warm `prepare_cached` hit on a `prep_spec`.
fn warm_hit(families: usize) -> u64 {
    let spec = prep_spec(&PrepSpecConfig::with_families(families));
    let (cache, options) = (PreparedCache::new(), PrepareOptions::default());
    let prepare = || {
        OrderingFramework::prepare_cached(&spec, PruneConfig::default(), &options, &cache).unwrap()
    };
    drop(prepare());
    let (allocs, fw) = counted(prepare);
    assert!(fw.stats().interned_hit);
    allocs
}

#[test]
fn preparation_allocates_in_proportion_to_the_automaton() {
    let (o10, o20, o40) = (observe(10), observe(20), observe(40));
    assert_eq!(
        (o10.nodes, o40.nodes),
        (491, 1961),
        "the automata themselves are linear"
    );
    // A constant number of allocations per node, and a small one: the
    // tables grow by doubling, and every NFSM node, ε-list, run,
    // closure and DFSM state is a slice of a shared table, and the start
    // row and contains columns are tables by node. What is left is
    // per-property metadata, such as the admission filters' rows. The
    // stages are checked first, so a failure names the one that
    // regressed.
    for ((stage, unit, ceiling), (allocs, size)) in STAGE_CEILINGS.into_iter().zip(o10.stages) {
        let per = allocs as f64 / size as f64;
        assert!(
            per <= ceiling,
            "{stage}: {allocs} allocations for {size} × {unit}: {per:.2} per {unit}, more than {ceiling}"
        );
    }
    let per_node = o10.prepare as f64 / o10.nodes as f64;
    assert!(
        per_node <= PREPARE_PER_NODE,
        "{} allocations for {} NFSM nodes: {per_node:.2} per node, more than {PREPARE_PER_NODE}",
        o10.prepare,
        o10.nodes
    );
    let (a10, a20, a40) = (o10.prepare, o20.prepare, o40.prepare);
    // Linear in the family count: 4 × the families, at most 4 × the
    // allocations (plus the logarithmic regrowth of a few tables).
    assert!(a20 > a10 && a40 > a20, "{a10} / {a20} / {a40}");
    assert!(
        a40 as f64 <= 3.5 * a10 as f64,
        "fam-40 {a40} vs fam-10 {a10}: ratio {:.2} > 3.5",
        a40 as f64 / a10 as f64
    );
    // A warm hit is not linear in the spec: the key and the per-query
    // views grow by doubling.
    let warm = WARM_HIT_CEILINGS.map(|(families, _)| warm_hit(families));
    for ((families, ceiling), allocs) in WARM_HIT_CEILINGS.into_iter().zip(warm) {
        assert!(
            allocs <= ceiling,
            "a warm hit at fam-{families}: {allocs} allocations, more than {ceiling}"
        );
    }
    let [w10, w40] = warm;
    assert!(
        w40 <= 2 * w10,
        "warm hit fam-40 {w40} vs fam-10 {w10}: ratio {:.2} > 2",
        w40 as f64 / w10 as f64
    );
}
